"""Tests of the benchmark's own metric code.

Run from the repository root with ``python3 -m pytest xbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stats import (  # noqa: E402
    fail_ratio,
    max_rho_meeting_slo,
    percentile,
    self_times,
    tail_percentile,
)

# -- the percentile rule ------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, 50.0),    # not even the median has ten beyond: median, n shows it
        (20, 50.0),    # exactly ten beyond the median
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1_000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    tail = tail_percentile([float(i) for i in range(n)])
    assert tail.p == expected
    assert tail.n == n
    assert tail.value == percentile([float(i) for i in range(n)], expected)


def test_tail_floor_fixes_the_percentile_however_many_samples_arrive():
    values = [float(i) for i in range(5_000)]
    tail = tail_percentile(values, floor=1_000)
    assert tail.p == 99.0
    assert tail.n == 5_000
    assert tail.label == "p99"


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ("op", 0.0, 10.0, None),
        ("a", 1.0, 9.0, 0),      # child of op
        ("b", 2.0, 5.0, 1),      # child of a
        ("c", 3.0, 4.0, 2),      # grandchild of a: charged to b, not to a
    ]
    totals = self_times(spans)
    assert totals == {"op": 2.0, "a": 5.0, "b": 2.0, "c": 1.0}


def test_self_time_subtracts_siblings_once_each():
    spans = [
        ("op", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("a", 4.0, 7.0, 0),      # same name, second sibling
        ("b", 7.0, 8.0, 0),
    ]
    totals = self_times(spans)
    assert totals["op"] == pytest.approx(10.0 - 2.0 - 3.0 - 1.0)
    assert totals["a"] == pytest.approx(5.0)
    assert totals["b"] == pytest.approx(1.0)


def test_self_time_never_subtracts_overlap_or_overhang_twice():
    spans = [
        ("op", 0.0, 10.0, None),
        ("a", 2.0, 6.0, 0),
        ("b", 4.0, 8.0, 0),      # overlaps a by two seconds
        ("c", 9.0, 12.0, 0),     # overhangs the parent's end
    ]
    assert self_times(spans)["op"] == pytest.approx(10.0 - 6.0 - 1.0)


# -- failures and the serving ladder -------------------------------------------------


def test_fail_ratio_counts_failed_over_attempted():
    assert fail_ratio(200, 0) == 0.0
    assert fail_ratio(200, 5) == 0.025
    assert fail_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        fail_ratio(3, 4)


def test_max_rho_is_highest_rung_within_the_limit():
    shares = {0.3: 0.01, 0.5: 0.04, 0.7: 0.08, 0.9: 0.2}
    assert max_rho_meeting_slo(shares, 0.05) == 0.5
    assert max_rho_meeting_slo({0.3: 0.05}, 0.05) == 0.3  # the limit itself passes


def test_max_rho_stops_at_the_first_rung_that_misses():
    shares = {0.3: 0.01, 0.5: 0.09, 0.7: 0.03}
    assert max_rho_meeting_slo(shares, 0.05) == 0.3
    assert max_rho_meeting_slo({0.3: 0.2}, 0.05) == 0.0


# -- host-speed scaling -----------------------------------------------------------------


def test_each_pass_is_scaled_by_the_probes_on_either_side(monkeypatch):
    import harness

    readings = iter([0.010, 0.030, 0.020, 0.020])
    monkeypatch.setattr(harness, "host_probe", lambda: next(readings))
    run = harness.Run(probing=True)
    run.timed("op", lambda: None, units=2)
    run.new_pass()
    run.new_pass()                    # nothing ran: the open pass is kept
    run.timed("op", lambda: None, units=3)
    run.new_pass()
    first, second = run.passes[:2]
    assert first.scale == pytest.approx(harness.PROBE_REF_S / 0.020)
    assert second.scale == pytest.approx(harness.PROBE_REF_S / 0.020)
    merged = run.scaled()
    assert merged.units == 5
    assert merged.busy == pytest.approx(first.busy * first.scale + second.busy * second.scale)
    assert merged.samples["op"] == pytest.approx(
        [first.samples["op"][0] * first.scale, second.samples["op"][0] * second.scale]
    )


# -- tracing ---------------------------------------------------------------------------


def test_tracer_patches_every_importer_and_restores():
    import repro
    import repro.core.schedulers as schedulers
    from repro.core import balance
    from repro.storage.heap import HeapFile
    from tracing import Tracer

    original_point = balance.balance_point
    original_fetch = HeapFile.__dict__["fetch"]
    tracer = Tracer()
    with tracer:
        assert balance.balance_point is not original_point
        assert schedulers.balance_point is balance.balance_point
        assert repro.balance_point is balance.balance_point
        assert HeapFile.__dict__["fetch"] is not original_fetch
    assert balance.balance_point is original_point
    assert schedulers.balance_point is original_point
    assert repro.balance_point is original_point
    assert HeapFile.__dict__["fetch"] is original_fetch


def test_tracer_records_generators_per_resumption_and_only_inside_ops():
    from repro.storage.btree import BTreeIndex
    from tracing import Tracer

    index = BTreeIndex()
    for key in range(5):
        index.insert(key, key)
    tracer = Tracer()
    with tracer:
        list(index.range_scan(0, 4))          # outside any op: not recorded
        with tracer.op("demo"):
            assert len(list(index.range_scan(1, 3))) == 3
    names = [span[0] for span in tracer.spans]
    assert names.count("op.demo") == 1
    # three yields plus the resumption that ends the scan
    assert names.count("storage.btree") == 4
    assert tracer.calls["demo", "storage.btree"] == 1
    assert tracer.yields["demo", "storage.btree"] == 3
    assert all(span[4] == 0 for span in tracer.spans)
    assert tracer.span_counts()["storage"] == 4


# -- the declared metrics ----------------------------------------------------------------


def test_benchmark_json_declares_what_the_command_prints():
    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in declared["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in declared["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in declared["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert {w["name"] for w in declared["workloads"]} == set(run._workloads())
