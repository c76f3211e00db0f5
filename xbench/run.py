#!/usr/bin/env python3
"""One benchmark for the XPRS stack, end to end and layer by layer.

Usage (from the repository root)::

    python3 xbench/run.py --workload sql_mixed --seed 1 --seconds 15 --trace 0

Workloads: ``sql_mixed``, ``plan_bushy``, ``fig7_micro``, ``serve_ladder``
(see README.md in this directory for why each was chosen).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
runs three times (median reported), then whole passes of the workload
repeat until ``--seconds`` have gone by.  ``--trace 1`` alternates an
untraced and a traced pass, each from a fresh set-up, and reports the
per-layer metrics of the traced passes plus the tracing overhead.

The human-readable report comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
any failed, and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from stats import fail_ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per end-to-end run (at least this many, and for at least
#: SETUP_MIN_S in all); the median is reported as ``setup_s``.
SETUPS = 5
SETUP_MIN_S = 1.0

#: Metrics of every ``--trace 0`` run.  Their meaning per workload is in
#: each workload's ``report``; the README maps them to the named metrics.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("virt_s", "s"),
)

#: Metrics of every ``--trace 1`` run; a layer a workload bypasses reads 0.
PER_LAYER = (
    ("storage.heap_insert_calls", "count"),
    ("storage.heap_insert_self_ms", "ms"),
    ("storage.heap_scan_calls", "count"),
    ("storage.heap_scan_self_ms", "ms"),
    ("storage.heap_fetch_calls", "count"),
    ("storage.heap_fetch_self_ms", "ms"),
    ("storage.btree_calls", "count"),
    ("storage.btree_self_ms", "ms"),
    ("storage.pages_read", "count"),
    ("storage.pages_per_lookup", "ratio"),
    ("catalog.decode_rows", "count"),
    ("catalog.decode_self_ms", "ms"),
    ("catalog.encode_self_ms", "ms"),
    ("catalog.analyze_self_ms", "ms"),
    ("executor.run_self_ms", "ms"),
    ("executor.rows_returned", "count"),
    ("executor.rows_examined_per_result", "ratio"),
    ("sql.translate_calls", "count"),
    ("sql.translate_self_ms", "ms"),
    ("optimizer.optimize_self_ms", "ms"),
    ("optimizer.enumerate_self_ms", "ms"),
    ("optimizer.parcost_self_ms", "ms"),
    ("optimizer.candidates", "count"),
    ("optimizer.pruned", "count"),
    ("optimizer.costed", "count"),
    ("optimizer.parcost_hits", "count"),
    ("optimizer.simulated", "count"),
    ("optimizer.hit_ratio", "ratio"),
    ("optimizer.prune_ratio", "ratio"),
    ("plans.estimate_calls", "count"),
    ("plans.estimate_self_ms", "ms"),
    ("plans.fragment_self_ms", "ms"),
    ("fluid.run_calls", "count"),
    ("fluid.run_self_ms", "ms"),
    ("core.balance_point_calls", "count"),
    ("core.balance_point_self_ms", "ms"),
    ("core.policy_decide_calls", "count"),
    ("core.policy_decide_self_ms", "ms"),
    ("micro.run_self_ms", "ms"),
    ("micro.faulted_self_ms", "ms"),
    ("micro.events", "count"),
    ("micro.adjustments", "count"),
    ("service.gate_decide_calls", "count"),
    ("service.gate_decide_self_ms", "ms"),
    ("service.queued", "count"),
    ("service.queue_wait_virt_p50_s", "s"),
    ("service.rejected", "count"),
    ("service.deadline_cancelled", "count"),
    ("service.useful_ratio", "ratio"),
    ("service.cpu_util_virt", "ratio"),
    ("service.io_util_virt", "ratio"),
    ("trace.overhead", "x"),
    ("trace.spans", "count"),
)

#: Span names whose call counts are per-layer metrics.
CALL_COUNTS = {
    "storage.heap_insert_calls": "storage.heap_insert",
    "storage.heap_scan_calls": "storage.heap_scan",
    "storage.heap_fetch_calls": "storage.heap_fetch",
    "storage.btree_calls": "storage.btree",
    "catalog.decode_rows": "catalog.decode",
    "sql.translate_calls": "sql.translate",
    "plans.estimate_calls": "plans.estimate",
    "fluid.run_calls": "fluid.run",
    "core.balance_point_calls": "core.balance_point",
    "core.policy_decide_calls": "core.policy_decide",
    "service.gate_decide_calls": "service.gate_decide",
}
#: Span names whose self time is a per-layer metric, over all op kinds.
SELF_TIMES = {
    "storage.heap_insert_self_ms": "storage.heap_insert",
    "storage.heap_scan_self_ms": "storage.heap_scan",
    "storage.heap_fetch_self_ms": "storage.heap_fetch",
    "storage.btree_self_ms": "storage.btree",
    "catalog.decode_self_ms": "catalog.decode",
    "catalog.encode_self_ms": "catalog.encode",
    "catalog.analyze_self_ms": "catalog.analyze",
    "executor.run_self_ms": "executor.run",
    "sql.translate_self_ms": "sql.translate",
    "optimizer.optimize_self_ms": "optimizer.optimize",
    "optimizer.enumerate_self_ms": "optimizer.enumerate",
    "optimizer.parcost_self_ms": "optimizer.parcost",
    "plans.estimate_self_ms": "plans.estimate",
    "plans.fragment_self_ms": "plans.fragment",
    "fluid.run_self_ms": "fluid.run",
    "core.balance_point_self_ms": "core.balance_point",
    "core.policy_decide_self_ms": "core.policy_decide",
    "service.gate_decide_self_ms": "service.gate_decide",
}


def _workloads() -> dict:
    from fig7_micro import Fig7Micro
    from plan_bushy import PlanBushy
    from serve_ladder import ServeLadder
    from sql_mixed import SqlMixed

    return {w.name: w for w in (SqlMixed(), PlanBushy(), Fig7Micro(), ServeLadder())}


def host_fingerprint() -> str:
    return (
        f"{platform.machine()} {platform.system()} {platform.release()}, "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}"
    )


# -- end-to-end run -----------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float):
    from harness import PROBE_REF_S, Run, cold, probed

    setups = []
    spent = 0.0
    while len(setups) < SETUPS or spent < SETUP_MIN_S:
        cold()

        def timed_setup():
            start = time.perf_counter()
            state = workload.setup(seed)
            return state, time.perf_counter() - start

        (state, wall), scale = probed(timed_setup)
        setups.append(wall * scale)
        spent += wall
    run = Run(probing=True)
    deadline = time.perf_counter() + seconds
    passes = 0
    # Whole cycles only, so every run measures the same mix of work.
    while (passes < workload.min_passes or passes % workload.cycle
           or time.perf_counter() < deadline):
        workload.run_pass(state, passes, run)
        run.new_pass()
        passes += 1
    probes = run.probes
    generic, lines = workload.report(run)
    setup_s = statistics.median(setups)
    metrics = {"setup_s": setup_s, **generic}
    lines = [("setup_s", setup_s, "s", f"median of {len(setups)} set-ups")] + lines
    lines.append(_fail_line(workload, run))
    lines.append(("passes", passes, "count", f"{run.attempted} operations timed"))
    lines.append((
        "host.probe_ms", statistics.median(probes) * 1000, "ms",
        f"range {min(probes) * 1000:.2f}-{max(probes) * 1000:.2f}; wall times above "
        f"are scaled to a {PROBE_REF_S * 1000:g} ms probe",
    ))
    lines.append(("raw.ops_per_s", run.units / run.busy, "1/s", "all passes, unscaled"))
    return run.attempted, run.failed, metrics, END_TO_END, lines


def _fail_line(workload, run) -> tuple:
    failed, attempted, what = run.failed, run.attempted, "operations"
    if hasattr(workload, "failed_submissions"):
        failed, attempted, what = workload.failed_submissions(run)
    return ("fail_ratio", fail_ratio(attempted, failed), "ratio",
            f"{failed} of {attempted} {what} failed")


# -- traced run -----------------------------------------------------------------------


def traced_run(workload, seed: int, seconds: float):
    from harness import Run, cold
    from tracing import Tracer

    def plain_pass() -> None:
        nonlocal attempted, failed
        plain = Run()
        start = time.perf_counter()
        cold()
        workload.run_pass(workload.setup(seed), 0, plain)
        plain_walls.append(time.perf_counter() - start)
        attempted += plain.attempted
        failed += plain.failed

    def traced_pass() -> None:
        nonlocal attempted, failed, first
        tracer = Tracer()
        traced = Run(tracer)
        start = time.perf_counter()
        with tracer:
            cold()
            with tracer.op("setup"):
                state = workload.setup(seed)
            workload.run_pass(state, 0, traced)
        traced_walls.append(time.perf_counter() - start)
        self_times.append(_self_metrics(tracer.self_ms()))
        attempted += traced.attempted
        failed += traced.failed
        if first is None:
            first = (tracer, traced)

    plain_walls, traced_walls, self_times = [], [], []
    attempted = failed = 0
    first = None
    # A warm-up pass first, then pairs in alternating order, so neither
    # side of the overhead ratio is the one that pays for warming up.
    plain_pass()
    plain_walls.clear()
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs == 0 or time.perf_counter() < deadline:
        for step in ((plain_pass, traced_pass) if pairs % 2 == 0 else (traced_pass, plain_pass)):
            step()
        pairs += 1
    tracer, traced = first
    spans = tracer.span_counts()
    silent = [layer for layer in workload.layers if not spans[layer]]
    if silent:
        failed += 1
        print(f"check failed: no spans from layer(s) {', '.join(silent)}", file=sys.stderr)
    tracer.write(ROOT / ".xbench" / f"trace-{workload.name}-seed{seed}.json.gz")

    metrics = _count_metrics(tracer, traced)
    for name in SELF_TIMES.keys() | {"micro.run_self_ms", "micro.faulted_self_ms"}:
        metrics[name] = statistics.median(pass_[name] for pass_ in self_times)
    # Each pair ran back to back, so its ratio sees one host state.
    overhead = statistics.median(t / p for t, p in zip(traced_walls, plain_walls))
    metrics["trace.overhead"] = overhead
    metrics["trace.spans"] = len(tracer.spans)
    lines = [
        ("trace.overhead", overhead, "x",
         f"traced / untraced wall, median over {len(traced_walls)} pass pairs"),
        ("spans", len(tracer.spans), "count",
         ", ".join(f"{k}={v}" for k, v in sorted(spans.items()))),
    ]
    return attempted, failed, metrics, PER_LAYER, lines


def _self_metrics(by_kind: dict) -> dict[str, float]:
    totals: Counter = Counter()
    for (_kind, name), ms in by_kind.items():
        totals[name] += ms
    metrics = {metric: totals[name] for metric, name in SELF_TIMES.items()}
    metrics["micro.run_self_ms"] = by_kind.get(("healthy", "micro.run"), 0.0)
    metrics["micro.faulted_self_ms"] = by_kind.get(("faulted", "micro.run"), 0.0)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _count_metrics(tracer, run) -> dict[str, float]:
    calls: Counter = Counter()
    for (_kind, name), n in tracer.calls.items():
        calls[name] += n
    counts = run.counts
    metrics = {metric: calls[name] for metric, name in CALL_COUNTS.items()}
    # Heap rows handed to the executor: scan yields and index fetches,
    # outside set-up (which scans to build indexes and statistics).
    examined = sum(
        n for (kind, name), n in tracer.yields.items()
        if kind != "setup" and name == "storage.heap_scan"
    ) + sum(
        n for (kind, name), n in tracer.calls.items()
        if kind != "setup" and name == "storage.heap_fetch"
    )
    rows = counts["executor.rows_returned"]
    queue_waits = run.virt["queue_wait"]
    metrics.update({
        "storage.pages_read": counts["storage.pages_read"],
        "storage.pages_per_lookup": _ratio(counts["lookup.pages"], len(run.samples["lookup"])),
        "executor.rows_returned": rows,
        "executor.rows_examined_per_result": _ratio(examined, rows),
        "optimizer.candidates": counts["optimizer.candidates"],
        "optimizer.pruned": counts["optimizer.pruned"],
        "optimizer.costed": counts["optimizer.costed"],
        "optimizer.parcost_hits": counts["optimizer.parcost_hits"],
        "optimizer.simulated": counts["optimizer.parcost_misses"],
        "optimizer.hit_ratio": _ratio(counts["optimizer.parcost_hits"], counts["optimizer.costed"]),
        "optimizer.prune_ratio": _ratio(counts["optimizer.pruned"], counts["optimizer.candidates"]),
        "micro.events": counts["micro.events"],
        "micro.adjustments": counts["micro.adjustments"],
        "service.queued": counts["service.queued"],
        "service.queue_wait_virt_p50_s": statistics.median(queue_waits) if queue_waits else 0.0,
        "service.rejected": counts["status.rejected"],
        "service.deadline_cancelled": counts["status.deadline"],
        "service.useful_ratio": _ratio(counts["status.completed"], counts["service.admitted"]),
        "service.cpu_util_virt": _ratio(counts["virt.cpu"], counts["virt.elapsed"]),
        "service.io_util_virt": _ratio(counts["virt.io"], counts["virt.elapsed"]),
    })
    return metrics


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"xbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    workload = workloads[args.workload]

    measure = traced_run if args.trace else timed_run
    attempted, failed, values, declared, lines = measure(workload, args.seed, args.seconds)

    print(f"xbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host: {host_fingerprint()}")
    print("memos: cold — balance_point memo cleared before every operation, "
          "a fresh optimizer per optimization")
    for name, value, unit, note in lines:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in declared
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
