"""Optimizer throughput benchmark (``python -m repro optbench``).

``parcost``-driven optimization is the expensive path through the
system: the bushy DP over an 8-relation query evaluates thousands of
candidate joins, each one a full fluid-engine simulation before the
fast path (estimate memoization, signature-keyed parcost caching,
branch-and-bound candidate skipping — :mod:`repro.optimizer.cache`)
was added.  This harness times phase-1 optimization across query sizes
and plan spaces and reports candidate throughput (plans considered per
wall second) plus end-to-end optimize latency.  ``BENCH_OPT.json`` at
the repository root records the trajectory, mirroring
``BENCH_PERF.json`` for the micro engine.

Workloads are seeded star or chain joins, so every simulated quantity —
candidate counts, prune/hit counters, the chosen plan and its parcost —
is byte-stable; only wall-clock varies between machines.  ``--smoke``
prints only the byte-stable part and asserts plan identity against the
exhaustive ``caches=None`` search, giving CI a cheap end-to-end check
of the pruning-safety argument.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..catalog.catalog import Catalog
from ..core.ids import id_scope
from ..errors import OptimizerError
from ..optimizer import (
    OptimizerCaches,
    ParcostObjective,
    enumerate_space,
    parcost,
    plan_shape_key,
)
from ..workloads.queries import JoinSchema, chain_join, star_join
from .perf import append_trajectory  # re-exported trajectory writer

__all__ = [
    "DEFAULT_RELATIONS",
    "DEFAULT_SPACES",
    "OptBenchCase",
    "OptBenchReport",
    "append_trajectory",
    "bench_workload",
    "run_optbench",
    "smoke_lines",
    "time_optimize",
]

#: Query sizes (total relations) timed by a default run.
DEFAULT_RELATIONS = (4, 6, 8)
#: Plan spaces timed for each size.
DEFAULT_SPACES = ("left-deep", "right-deep", "bushy")
#: Wall-clock repetitions per case; the best (minimum) time is kept.
DEFAULT_REPEATS = 3
#: Row scale keeping the 8-relation bushy case tractable while leaving
#: realistic cost structure (distinct relation sizes, real selectivity).
_STAR_FACT_ROWS = 400
_STAR_DIM_ROWS = 80
_CHAIN_ROWS = 300


@dataclass(frozen=True)
class OptBenchCase:
    """One timed (size, space) optimization.

    All counters and costs are deterministic for a given seed; only the
    ``wall_*`` fields vary between machines.
    """

    n_relations: int
    space: str
    topology: str
    candidates: int
    costed: int
    pruned: int
    parcost_hits: int
    simulated: int
    chosen_parcost: float
    wall_seconds: float
    plans_per_sec: float


@dataclass
class OptBenchReport:
    """All timed cases of one harness invocation."""

    seed: int
    topology: str
    repeats: int
    cases: list[OptBenchCase] = field(default_factory=list)

    def to_table(self) -> str:
        """Human-readable per-case latency/throughput table."""
        lines = [
            f"optimizer throughput ({self.topology} joins, seed={self.seed}, "
            f"best of {self.repeats})",
            f"{'rels':>5} {'space':<10} {'cands':>6} {'pruned':>7} "
            f"{'sims':>5} {'wall s':>8} {'plans/sec':>10}",
        ]
        for case in self.cases:
            lines.append(
                f"{case.n_relations:>5} {case.space:<10} {case.candidates:>6} "
                f"{case.pruned:>7} {case.simulated:>5} "
                f"{case.wall_seconds:>8.3f} {case.plans_per_sec:>10,.0f}"
            )
        return "\n".join(lines)

    def to_entry(self, label: str) -> dict:
        """One ``BENCH_OPT.json`` trajectory entry."""
        return {
            "label": label,
            "seed": self.seed,
            "topology": self.topology,
            "repeats": self.repeats,
            "workloads": {
                f"{case.n_relations}rel/{case.space}": {
                    "candidates": case.candidates,
                    "pruned": case.pruned,
                    "parcost_hits": case.parcost_hits,
                    "simulated": case.simulated,
                    "wall_seconds": round(case.wall_seconds, 4),
                    "plans_per_sec": round(case.plans_per_sec),
                }
                for case in self.cases
            },
        }


def bench_workload(
    n_relations: int, *, topology: str = "star", seed: int = 0
) -> JoinSchema:
    """The seeded join workload for one benchmark case.

    ``star`` builds a fact table with ``n_relations - 1`` dimensions
    (the shape with the largest bushy space and the most structural
    symmetry, which is where signature caching pays off); ``chain``
    builds a linear join path.
    """
    if n_relations < 2:
        raise OptimizerError("optbench needs at least 2 relations")
    # Scoped node ids: two bench_workload calls with the same arguments
    # build byte-identical schemas, so in-process reruns are repeatable.
    with id_scope():
        if topology == "star":
            return star_join(
                n_relations - 1,
                fact_rows=_STAR_FACT_ROWS,
                dimension_rows=_STAR_DIM_ROWS,
                seed=seed,
            )
        if topology == "chain":
            return chain_join(
                n_relations, rows_per_relation=_CHAIN_ROWS, seed=seed
            )
    raise OptimizerError(f"unknown topology: {topology!r}")


def time_optimize(
    schema: JoinSchema, space: str, *, repeats: int = DEFAULT_REPEATS
) -> tuple[float, object, OptimizerCaches]:
    """Time phase-1 optimization; wall time is the best of ``repeats``.

    Every repeat starts from cold caches (a fresh
    :class:`OptimizerCaches`), so the measurement is the cost of one
    from-scratch optimization, not of a warm-cache replay.  Returns
    ``(best wall seconds, chosen plan, last repeat's caches)``.
    """
    best = float("inf")
    plan = None
    caches = None
    for _ in range(repeats):
        caches = OptimizerCaches()
        objective = ParcostObjective(schema.catalog, caches=caches)
        start = time.perf_counter()
        plan = enumerate_space(
            schema.query,
            schema.catalog,
            objective,
            space=space,
            stats=caches.stats,
        )
        best = min(best, time.perf_counter() - start)
    assert plan is not None and caches is not None
    return best, plan, caches


def run_optbench(
    relations: tuple[int, ...] = DEFAULT_RELATIONS,
    *,
    spaces: tuple[str, ...] = DEFAULT_SPACES,
    topology: str = "star",
    seed: int = 0,
    repeats: int = DEFAULT_REPEATS,
) -> OptBenchReport:
    """Time the optimizer across sizes and plan spaces."""
    report = OptBenchReport(seed=seed, topology=topology, repeats=repeats)
    for n_relations in relations:
        schema = bench_workload(n_relations, topology=topology, seed=seed)
        for space in spaces:
            wall, plan, caches = time_optimize(schema, space, repeats=repeats)
            stats = caches.stats
            report.cases.append(
                OptBenchCase(
                    n_relations=n_relations,
                    space=space,
                    topology=topology,
                    candidates=stats.candidates,
                    costed=stats.costed,
                    pruned=stats.pruned,
                    parcost_hits=stats.parcost_hits,
                    simulated=stats.simulated,
                    chosen_parcost=parcost(plan, schema.catalog),
                    wall_seconds=wall,
                    plans_per_sec=stats.candidates / wall if wall > 0 else 0.0,
                )
            )
    return report


def smoke_lines(*, seed: int = 0, topology: str = "star") -> list[str]:
    """Byte-stable output of a small deterministic optimizer run.

    Reports only deterministic quantities (candidate counts, prune and
    cache counters, the chosen plan's parcost), never wall-clock, and
    replays the exhaustive ``caches=None`` search to assert plan
    identity — two runs on any machines print the same bytes unless
    the plan-identical guarantee itself broke.
    """
    schema = bench_workload(4, topology=topology, seed=seed)
    caches = OptimizerCaches()
    fast = ParcostObjective(schema.catalog, caches=caches)
    fast_plan = enumerate_space(
        schema.query, schema.catalog, fast, space="bushy", stats=caches.stats
    )
    slow = ParcostObjective(schema.catalog, caches=None)
    slow_plan = enumerate_space(schema.query, schema.catalog, slow, space="bushy")
    stats = caches.stats
    fast_cost = parcost(fast_plan, schema.catalog)
    slow_cost = parcost(slow_plan, schema.catalog)
    lines = [
        f"smoke: 4-relation {topology} join, bushy space, seed {seed}",
        f"smoke: {stats.candidates} candidates, {stats.pruned} pruned, "
        f"{stats.parcost_hits} cache hits, {stats.simulated} simulated",
        f"smoke: chosen parcost {fast_cost:.6f}s",
    ]
    if plan_shape_key(fast_plan) != plan_shape_key(slow_plan) or fast_cost != slow_cost:
        lines.append(
            "smoke failed: fast path chose a different plan "
            f"(parcost {fast_cost!r} vs {slow_cost!r})"
        )
    return lines
