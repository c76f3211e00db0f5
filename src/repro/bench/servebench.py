"""Serving throughput benchmark (``python -m repro servebench``).

The admission gate is the hot loop of serving mode: the engine consults
it on every virtual event, so the gate keeps incremental state
(dict-backed FIFO queue, heap-backed deadline instants, memoized gated
views, head-window admission scans — :mod:`repro.service.server`)
instead of rescanning every queue, retry entry and in-flight submission
per consult.  This harness times the full serving pipeline on the
**ext2 stress preset** — the extreme two-tenant ETL/OLAP mix
(:func:`repro.service.arrivals.mixed_tenant_config`) driven deep into
congestion: offered load far above capacity, deep per-tenant queues,
retry backoff and shed-mode deadline enforcement, the regime where a
high-throughput gate earns its keep.  Each case reports
submissions/sec and gate-decisions/sec.  ``BENCH_SERVE.json`` at the
repository root records the trajectory, mirroring ``BENCH_PERF.json``
and ``BENCH_OPT.json``.

Workloads are seeded, so every simulated quantity — outcome statuses
and timestamps, utilizations, gate-consult counts — is byte-stable;
only wall-clock varies between machines.  ``--smoke`` prints only the
byte-stable part and runs the serving-accounting oracle
(:func:`repro.check.accounting.check_service_accounting`) on it, giving
CI a cheap end-to-end check that every submission is accounted exactly
once and that the run replays deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..check.accounting import check_service_accounting
from ..core.balance import clear_point_cache
from ..core.ids import id_scope
from ..core.schedulers import InterWithAdjPolicy
from ..faults.retry import RetryPolicy
from ..service.admission import BalanceAwareAdmission
from ..service.arrivals import mixed_tenant_config, poisson_stream
from ..service.server import QueryService, ServiceResult
from .perf import append_trajectory  # re-exported trajectory writer

__all__ = [
    "DEFAULT_CASES",
    "DEFAULT_REPEATS",
    "SMOKE_CASE",
    "ServeBenchCase",
    "ServeBenchReport",
    "append_trajectory",
    "run_servebench",
    "serve_once",
    "smoke_lines",
]

#: The ext2 stress ladder: (stream length, offered rate λ, queue bound).
#: Offered load sits far above the service capacity at every rung, so
#: the gate runs congested — deep queues, steady retry traffic and
#: deadline enforcement — which is exactly the regime the incremental
#: gate targets (an idle gate is cheap in any implementation).
DEFAULT_CASES: tuple[tuple[int, float, int], ...] = (
    (600, 1.5, 64),
    (1200, 3.0, 256),
    (2400, 6.0, 512),
)
#: The ``--smoke`` run: (stream length, offered rate λ, queue bound).
SMOKE_CASE: tuple[int, float, int] = (120, 1.0, 16)
#: Wall-clock repetitions per case; the best (minimum) time is kept.
DEFAULT_REPEATS = 3
#: Fragment budget of every case (small: admission decides constantly).
_MAX_INFLIGHT = 4
#: Retry and deadline knobs of every case.
_RETRY = dict(max_retries=6, base_delay=0.5, max_delay=8.0)
_DEADLINE_GRACE = 5.0


def _stress_stream(n: int, rate: float, *, seed: int):
    """The ext2 arrival stream of one rung (deterministic per arguments)."""
    config = mixed_tenant_config(n)
    return poisson_stream(rate=rate, seed=seed, config=config)


def _stress_service(queue_capacity: int) -> QueryService:
    """A fresh service with the stress preset's gate knobs."""
    return QueryService(
        admission=BalanceAwareAdmission(),
        scheduler=InterWithAdjPolicy(),
        queue_capacity=queue_capacity,
        max_inflight_fragments=_MAX_INFLIGHT,
        retry=RetryPolicy(**_RETRY),
        deadline_policy="shed",
        deadline_grace=_DEADLINE_GRACE,
    )


def serve_once(
    n: int,
    rate: float,
    queue_capacity: int,
    *,
    seed: int = 0,
) -> ServiceResult:
    """One serving run of the ext2 stress preset, scoped and seeded.

    A pure function of its arguments: ids restart inside the scope, so
    two calls with equal arguments produce byte-identical results
    regardless of what ran before them in the process.
    """
    with id_scope():
        stream = _stress_stream(n, rate, seed=seed)
        return _stress_service(queue_capacity).run(stream)


@dataclass(frozen=True)
class ServeBenchCase:
    """One timed rung of the stress ladder.

    The outcome counters and ``decide_rounds`` are deterministic for a
    given seed; only ``wall_seconds`` varies between machines.
    """

    n_submissions: int
    rate: float
    queue_capacity: int
    completed: int
    rejected: int
    deadline_cancelled: int
    decide_rounds: int
    wall_seconds: float

    @property
    def subs_per_sec(self) -> float:
        """Submissions served per wall second."""
        wall = self.wall_seconds
        return self.n_submissions / wall if wall else 0.0

    @property
    def rounds_per_sec(self) -> float:
        """Gate consults per wall second."""
        wall = self.wall_seconds
        return self.decide_rounds / wall if wall else 0.0


@dataclass
class ServeBenchReport:
    """All timed rungs of one harness invocation."""

    seed: int
    repeats: int
    cases: list[ServeBenchCase] = field(default_factory=list)

    def to_table(self) -> str:
        """Human-readable per-rung latency/throughput table."""
        lines = [
            f"serving throughput (ext2 stress preset, seed={self.seed}, "
            f"best of {self.repeats})",
            f"{'subs':>5} {'rate':>5} {'qcap':>5} {'done':>5} {'rej':>5} "
            f"{'ddl':>5} {'rounds':>7} {'wall s':>8} "
            f"{'subs/sec':>9} {'rounds/sec':>11}",
        ]
        for case in self.cases:
            lines.append(
                f"{case.n_submissions:>5} {case.rate:>5.1f} "
                f"{case.queue_capacity:>5} {case.completed:>5} "
                f"{case.rejected:>5} {case.deadline_cancelled:>5} "
                f"{case.decide_rounds:>7} {case.wall_seconds:>8.3f} "
                f"{case.subs_per_sec:>9,.0f} {case.rounds_per_sec:>11,.0f}"
            )
        return "\n".join(lines)

    def to_entry(self, label: str) -> dict:
        """One ``BENCH_SERVE.json`` trajectory entry."""
        return {
            "label": label,
            "seed": self.seed,
            "repeats": self.repeats,
            "workloads": {
                f"{case.n_submissions}sub/{case.rate:g}ps": {
                    "completed": case.completed,
                    "rejected": case.rejected,
                    "deadline_cancelled": case.deadline_cancelled,
                    "decide_rounds": case.decide_rounds,
                    "wall_seconds": round(case.wall_seconds, 4),
                    "subs_per_sec": round(case.subs_per_sec),
                    "rounds_per_sec": round(case.rounds_per_sec),
                }
                for case in self.cases
            },
        }


def _time_case(
    n: int, rate: float, queue_capacity: int, *, seed: int, repeats: int
) -> tuple[float, ServiceResult]:
    """Best-of-``repeats`` wall time of one rung, each repeat cold.

    Only the serve itself is timed — the arrival stream is built once
    outside the clock, since generation is not part of the gate under
    measurement.  The balance-point memo is cleared before every repeat
    so the measurement is a from-scratch serve, not a warm-cache replay.
    """
    best = float("inf")
    result: ServiceResult | None = None
    with id_scope():
        stream = _stress_stream(n, rate, seed=seed)
        for __ in range(repeats):
            clear_point_cache()
            service = _stress_service(queue_capacity)
            start = time.perf_counter()
            result = service.run(stream)
            best = min(best, time.perf_counter() - start)
    assert result is not None
    return best, result


def run_servebench(
    cases: tuple[tuple[int, float, int], ...] = DEFAULT_CASES,
    *,
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> ServeBenchReport:
    """Time the serving pipeline across the stress ladder."""
    report = ServeBenchReport(seed=seed, repeats=repeats)
    for n, rate, queue_capacity in cases:
        wall, result = _time_case(
            n, rate, queue_capacity, seed=seed, repeats=repeats
        )
        statuses = [o.status for o in result.outcomes]
        report.cases.append(
            ServeBenchCase(
                n_submissions=n,
                rate=rate,
                queue_capacity=queue_capacity,
                completed=statuses.count("completed")
                + statuses.count("degraded"),
                rejected=statuses.count("rejected"),
                deadline_cancelled=statuses.count("deadline"),
                decide_rounds=result.decide_rounds,
                wall_seconds=wall,
            )
        )
    return report


def smoke_lines(*, seed: int = 0) -> list[str]:
    """Byte-stable output of a small deterministic serving run.

    Reports only deterministic quantities (outcome counts, gate-consult
    counts, simulated elapsed time), never wall-clock, and serves the
    run twice to audit it with the serving-accounting oracle — two runs
    on any machines print the same bytes unless a submission was
    mis-accounted or the run stopped replaying deterministically.
    """
    n, rate, queue_capacity = SMOKE_CASE
    result = serve_once(n, rate, queue_capacity, seed=seed)
    rerun = serve_once(n, rate, queue_capacity, seed=seed)
    statuses = [o.status for o in result.outcomes]
    lines = [
        f"smoke: ext2 mix, {n} submissions at {rate:g}/s, "
        f"queue cap {queue_capacity}, seed {seed}",
        f"smoke: {statuses.count('completed')} completed, "
        f"{statuses.count('degraded')} degraded, "
        f"{statuses.count('rejected')} rejected, "
        f"{statuses.count('deadline')} deadline-cancelled",
        f"smoke: {result.decide_rounds} gate consults over "
        f"{result.elapsed:.4f}s simulated",
    ]
    failures = check_service_accounting(result, rerun)
    if failures:
        lines.append(f"smoke failed: serving accounting: {failures[0]}")
    return lines
