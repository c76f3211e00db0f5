"""``serve_ladder``: an open-loop ``QueryService`` ladder in virtual time.

Why: service admission, ``core.balance`` and ``sim.fluid`` do the work
here.  The in-capacity rungs carry soft SLO tags and admit through the
balance-aware gate; the overload rung runs the shed + retry knobs of the
legacy ``servebench`` stress preset, so the gate is used in two ways.

Offered load is a fixed ladder of rho x capacity, where capacity is
measured once per set-up with deadline enforcement off.  Check: every
submission ends in exactly one terminal status, and repeating a stream
repeats its outcome bit for bit.
"""

from __future__ import annotations

from repro import InterWithAdjPolicy, QueryService, RetryPolicy, mixed_tenant_config, poisson_stream
from repro.service import BalanceAwareAdmission, estimate_capacity
from repro.service.arrivals import clear_pool_cache

from stats import max_rho_meeting_slo, percentile, tail_percentile

RUNGS = (0.3, 0.5, 0.7, 0.9)
#: Streams per in-capacity rung, each of SUBMISSIONS arrivals.
STREAMS = 16
SUBMISSIONS = 250
#: The rung whose p95 response time and stream run time are reported.
P95_RHO = 0.7
SLO_LIMIT = 0.05
OVERLOAD_RHO = 2.0
OVERLOAD_SUBMISSIONS = 400
PROBE = 120
#: Stream runs at the P95_RHO rung every run reaches: enough for a p75.
TAIL_FLOOR = 40
TERMINAL = {"completed", "rejected", "deadline", "degraded"}


def _overload_service() -> QueryService:
    """The stress preset's gate knobs: deep queues, retries, shed deadlines."""
    return QueryService(
        admission=BalanceAwareAdmission(),
        scheduler=InterWithAdjPolicy(),
        queue_capacity=64,
        max_inflight_fragments=4,
        retry=RetryPolicy(max_retries=6, base_delay=0.5, max_delay=8.0),
        deadline_policy="shed",
        deadline_grace=5.0,
    )


def _digest(result) -> tuple:
    def hx(value):
        return None if value is None else float(value).hex()

    return tuple(
        (o.submission.submission_id, o.status, hx(o.admitted_at), hx(o.finished_at),
         hx(o.rejected_at), hx(o.cancelled_at))
        for o in result.outcomes
    )


class ServeLadder:
    name = "serve_ladder"
    layers = ("service", "fluid", "core")
    #: Every pass serves the same streams.
    cycle = 1
    min_passes = -(-TAIL_FLOOR // STREAMS)

    def setup(self, seed: int) -> list:
        clear_pool_cache()
        config = mixed_tenant_config(SUBMISSIONS)
        capacity = estimate_capacity(
            seed=seed, config=config, service=QueryService(), n_probe=PROBE
        )
        streams = []
        for rho in RUNGS:
            for s in range(STREAMS):
                stream = poisson_stream(
                    rate=rho * capacity, seed=seed * 1_000 + s, config=config
                )
                streams.append((rho, stream))
        overload = poisson_stream(
            rate=OVERLOAD_RHO * capacity,
            seed=seed * 1_000 + STREAMS,
            config=mixed_tenant_config(OVERLOAD_SUBMISSIONS),
        )
        streams.append((OVERLOAD_RHO, overload))
        return streams

    def run_pass(self, streams: list, index: int, run) -> None:
        for position, (rho, stream) in enumerate(streams):
            if position and position % STREAMS == 0:
                # A pass takes seconds: sample host speed once per rung.
                run.new_pass()
            overload = rho == OVERLOAD_RHO
            kind = "overload" if overload else f"rho{rho}"
            service = _overload_service() if overload else QueryService()
            result = run.timed(kind, lambda: service.run(stream), units=len(stream))
            if result is None:
                continue
            ids = [o.submission.submission_id for o in result.outcomes]
            digest = _digest(result)
            first = run.digests.setdefault(position, digest)
            run.check(
                kind,
                sorted(ids) == sorted(s.submission_id for s in stream)
                and all(o.status in TERMINAL for o in result.outcomes)
                and digest == first,
                f"rho {rho}: {len(ids)} outcomes for {len(stream)} submissions, "
                f"repeat identical: {digest == first}",
            )
            if index == 0:
                self._count(rho, result, run)

    @staticmethod
    def _count(rho: float, result, run) -> None:
        counts = run.counts
        for outcome in result.outcomes:
            counts[f"status.{outcome.status}"] += 1
            if rho != OVERLOAD_RHO:
                counts[f"rung.{rho}.tagged"] += outcome.submission.deadline is not None
                # A refused tagged submission counts as a miss too.
                counts[f"rung.{rho}.missed"] += outcome.slo_missed
            if outcome.admitted_at is not None:
                counts["service.admitted"] += 1
                # Most submissions are admitted on arrival; the wait of
                # those that queued is what a gate change moves.
                if outcome.finished_at is not None and outcome.queueing_delay > 0:
                    counts["service.queued"] += 1
                    run.virt["queue_wait"].append(outcome.queueing_delay)
            if rho != OVERLOAD_RHO and outcome.finished_at is not None:
                run.virt["ladder"].append(outcome.response_time)
                if rho == P95_RHO:
                    run.virt["p95_rung"].append(outcome.response_time)
        schedule = result.schedule
        counts["virt.elapsed"] += schedule.elapsed
        counts["virt.cpu"] += schedule.cpu_utilization * schedule.elapsed
        counts["virt.io"] += schedule.io_utilization * schedule.elapsed

    @staticmethod
    def miss_shares(counts) -> dict[float, float]:
        return {
            rho: counts[f"rung.{rho}.missed"] / max(counts[f"rung.{rho}.tagged"], 1)
            for rho in RUNGS
        }

    @staticmethod
    def failed_submissions(run) -> tuple[int, int, str]:
        """Refused, shed, deadline-cancelled and degraded submissions count
        as failed, as do the submissions of any run whose check failed."""
        counts = run.counts
        total = sum(counts[f"status.{status}"] for status in TERMINAL)
        missed = total - counts["status.completed"]
        return min(missed + run.failed, total), total, "submissions (first pass)"

    def report(self, run) -> tuple[dict, list]:
        scaled = run.scaled()
        rungs = scaled.samples[f"rho{P95_RHO}"]
        tail = tail_percentile(rungs, TAIL_FLOOR)
        p50 = percentile(rungs, 50)
        p95 = percentile(run.virt["p95_rung"], 95)
        ladder_p50 = percentile(run.virt["ladder"], 50)
        shares = self.miss_shares(run.counts)
        generic = {
            "ops_per_s": scaled.units / scaled.busy,
            "op_p50_ms": p50 * 1000,
            "op_tail_ms": tail.value * 1000,
            "virt_s": ladder_p50,
        }
        lines = [
            ("serve.subs_per_s", scaled.units / scaled.busy, "1/s", f"{scaled.units} submissions, all rungs"),
            ("serve.virt_p95_s", p95, "s", f"rho={P95_RHO}, n={len(run.virt['p95_rung'])}"),
            ("serve.virt_max_rho", max_rho_meeting_slo(shares, SLO_LIMIT), "rho",
             "miss shares " + ", ".join(f"{r}:{s:.3f}" for r, s in shares.items())),
            ("serve.virt_ladder_p50_s", ladder_p50, "s",
             f"n={len(run.virt['ladder'])}, all in-capacity rungs"),
            ("serve.run_p50_ms", p50 * 1000, "ms",
             f"n={len(rungs)} stream runs of {SUBMISSIONS} at rho={P95_RHO}"),
            (f"serve.run_{tail.label}_ms", tail.value * 1000, "ms", f"n={tail.n}"),
            ("serve.overload_p50_ms", percentile(scaled.samples["overload"], 50) * 1000, "ms",
             f"n={len(scaled.samples['overload'])}, rho={OVERLOAD_RHO} shed + retry"),
        ]
        return generic, lines
