"""Serving-accounting oracle: every submission is accounted exactly once.

:func:`check_service_accounting` audits one
:class:`~repro.service.server.ServiceResult` against the engine trace
it was digested from, so a gate bug that loses, double-counts or
half-finishes a submission fails loudly instead of skewing a metric.
:func:`random_service_run` derives a randomized serving scenario from a
seed for the fuzzer's rotation.
"""

from __future__ import annotations

import random
from collections import Counter

#: Terminal status -> (fragment fates it requires, fates it allows).
#: Fates are "finished", "cancelled" and "shed"; each submission ends
#: in exactly one of these statuses.
FATES = {
    "completed": ({"finished"}, {"finished"}),
    "degraded": ({"finished", "cancelled"}, {"finished", "cancelled"}),
    "rejected": ({"shed"}, {"shed"}),
    "deadline": ({"cancelled"}, {"finished", "cancelled"}),
}
#: Tenant counter -> the outcome tally it must equal.
_COUNTERS = {
    "offered": "offered",
    "admitted": "admitted",
    "completed": "finished",
    "rejected": "rejected",
    "deadline_cancelled": "deadline",
    "degraded": "degraded",
}


def check_service_accounting(result, rerun=None) -> list[str]:
    """Audit one serving run; returns failure strings (empty = ok).

    Checks that every submission has exactly one outcome, in a terminal
    status; that each of its fragments is finished, cancelled or shed
    exactly once, as its status requires and allows (:data:`FATES`),
    with ``finished_at`` at its last finish; that the per-tenant
    counters equal the outcome counts; and, given ``rerun`` (the same
    seeded run again), that both runs digest identically.
    """
    from ..service.server import service_digest

    schedule = result.schedule
    fate: dict[int, list[str]] = {}
    for kind, records in (
        ("finished", schedule.records),
        ("cancelled", schedule.cancel_records),
        ("shed", schedule.shed_records),
    ):
        for record in records:
            fate.setdefault(record.task.task_id, []).append(kind)
    finish = {r.task.task_id: r.finished_at for r in schedule.records}
    ids = Counter(o.submission.submission_id for o in result.outcomes)
    failures = [
        f"submission {sid} has {n} outcomes" for sid, n in ids.items() if n > 1
    ]
    tallies: dict[str, Counter] = {}
    for outcome in result.outcomes:
        submission, status = outcome.submission, outcome.status
        name = submission.name
        if status not in FATES:
            failures.append(f"{name}: non-terminal status {status!r}")
            continue
        required, allowed = FATES[status]
        fates = [fate.get(t.task_id, []) for t in submission.tasks]
        kinds = {f[0] for f in fates if len(f) == 1}
        if any(len(f) != 1 for f in fates) or not required <= kinds <= allowed:
            failures.append(f"{name}: {status} with fragment fates {fates}")
        elif "finished" in required and outcome.finished_at != max(
            finish.get(t.task_id, 0.0) for t in submission.tasks
        ):
            failures.append(f"{name}: finished_at is not its last finish")
        tally = tallies.setdefault(submission.tenant, Counter())
        tally.update(["offered", status])
        tally["admitted"] += outcome.admitted_at is not None
        tally["finished"] += "finished" in required
    for tenant, tally in sorted(tallies.items()):
        tm = result.metrics.tenants.get(tenant)
        for counter, key in _COUNTERS.items():
            value = getattr(tm, counter, None)
            if value != tally[key]:
                failures.append(
                    f"tenant {tenant}: {counter} counter {value} != "
                    f"{tally[key]} outcomes"
                )
    if rerun is not None and service_digest(rerun) != service_digest(result):
        failures.append("the same seeded run digested differently twice")
    return failures


def random_service_run(seed: int):
    """One randomized serving run, a pure function of ``seed``.

    Draws the arrival count and rate, the admission policy, a queue
    bound of 1–16, a fragment budget of 1–8, retry on or off, the
    circuit breaker on or off, disk-degradation windows and the
    deadline policy (off/shed/kill).
    """
    from ..config import paper_machine
    from ..core.ids import id_scope
    from ..faults.breaker import CircuitBreaker
    from ..faults.retry import RetryPolicy
    from ..faults.schedule import DiskDegradation
    from ..service.admission import admission_by_name
    from ..service.arrivals import ArrivalConfig, poisson_stream
    from ..service.server import QueryService

    rng = random.Random(seed ^ 0x5E)
    config = ArrivalConfig(
        n_submissions=rng.randint(10, 60), slo_stretch=rng.uniform(1.5, 6.0)
    )
    rate = rng.uniform(0.1, 2.0)
    retry = rng.random() < 0.6
    breaker = rng.random() < 0.4
    service = QueryService(
        admission=admission_by_name(rng.choice(("fifo", "balance"))),
        queue_capacity=rng.randint(1, 16),
        max_inflight_fragments=rng.randint(1, 8),
        retry=RetryPolicy(max_retries=rng.randint(1, 4)) if retry else None,
        breaker=(
            CircuitBreaker(
                failure_threshold=rng.randint(1, 6),
                cooldown=rng.uniform(2.0, 40.0),
            )
            if breaker
            else None
        ),
        degradations=[
            DiskDegradation(
                disk,
                start=rng.uniform(0.0, 40.0),
                duration=rng.uniform(5.0, 80.0),
                factor=rng.uniform(0.1, 0.9),
            )
            for disk in range(paper_machine().disks)
            if rng.random() < 0.35
        ],
        deadline_policy=rng.choice(("off", "shed", "kill")),
        deadline_grace=rng.choice((0.0, 3.0)),
    )
    with id_scope():
        return service.run(poisson_stream(rate=rate, seed=seed, config=config))
