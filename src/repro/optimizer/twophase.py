"""The two-phase optimization strategy, extended per Section 4.

Phase 1 (compile time): conventional optimization of *sequential* plans.
[HONG91] searched left-deep trees with ``seqcost``; Section 4 extends
this to bushy trees with ``parcost`` for the single-user case.

Phase 2 (run time): parallelize the chosen sequential plan — decompose
it into fragments and schedule them with the adaptive algorithm.

Three optimizer modes map onto the paper:

* ``LEFT_DEEP_SEQ`` — [HONG91]: left-deep space, seqcost.  In a
  multi-user system this is the right choice: "we rely on the tasks
  from different queries submitted by multiple users to achieve maximum
  resource utilizations using our scheduling algorithm."
* ``BUSHY_SEQ`` — bushy space, still seqcost (an ablation: bushy shape
  without parallel-aware costing).
* ``BUSHY_PAR`` — Section 4: bushy space costed by ``parcost(p, n)``.

The optimizer runs a **fast path**: per-node estimate memoization,
signature-keyed parcost caching and branch-and-bound candidate skipping
(see :mod:`repro.optimizer.cache`).  It is plan-identical to the
exhaustive search — :func:`~repro.optimizer.enumeration.enumerate_space`
with an uncached objective (``caches=None``) chooses the same plan with
the same cost, which the golden-plan corpus and the optimizer
differential in :mod:`repro.check.differential` assert exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from ..catalog.catalog import Catalog
from ..config import MachineConfig, paper_machine
from ..core.schedulers import SchedulingPolicy
from ..errors import OptimizerError
from ..plans.costing import CostModel, estimate_plan
from ..plans.nodes import PlanNode
from .cache import CacheStats, OptimizerCaches
from .enumeration import JOIN_METHODS, enumerate_space
from .parcost import ParallelCost, ParcostObjective, parallel_cost
from .query import Query


class OptimizerMode(Enum):
    """Which plan space and cost function the optimizer uses."""

    LEFT_DEEP_SEQ = "left-deep/seqcost"
    BUSHY_SEQ = "bushy/seqcost"
    BUSHY_PAR = "bushy/parcost"


@dataclass
class OptimizedQuery:
    """Output of the two-phase optimizer."""

    query: Query
    mode: OptimizerMode
    plan: PlanNode
    parallel: ParallelCost
    #: Fast-path counters covering this optimization.  A snapshot:
    #: numbers are cumulative per optimizer instance, captured at
    #: return time.
    stats: dict

    @property
    def predicted_elapsed(self) -> float:
        return self.parallel.elapsed


class TwoPhaseOptimizer:
    """Phase-1 plan choice plus phase-2 parallelization.

    Args:
        catalog: resolves schemas, indexes, statistics.
        machine: the run-time machine (known beforehand in the paper's
            single-user setting).
        cost_model: CPU constants shared by both cost functions.
        methods: join methods the enumerator may use.
        tracer: a :class:`~repro.obs.Tracer`; each ``optimize`` call
            emits one deterministic instant on the ``optimizer`` track
            carrying this query's candidate/pruned/costed deltas.
            ``None`` (or the falsy NullTracer) records nothing.
        metrics: a :class:`~repro.obs.MetricsRegistry`; each
            ``optimize`` call folds this query's cache-counter deltas
            into ``optimizer.*`` counters and its phase-1 wall time into
            the ``optimizer.phase1_seconds`` histogram.  The hot
            enumeration loop keeps incrementing plain ints; the
            registry only sees per-call deltas.  ``None`` skips both.

    The fast-path caches live on the optimizer instance and are shared
    across queries — correct as long as the catalog's statistics do not
    change underneath it; call ``caches.clear()`` after an ANALYZE-style
    refresh.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        machine: MachineConfig | None = None,
        cost_model: CostModel | None = None,
        methods: tuple[str, ...] = JOIN_METHODS,
        tracer=None,
        metrics=None,
    ) -> None:
        self.catalog = catalog
        self.machine = machine or paper_machine()
        self.cost_model = cost_model
        self.methods = methods
        self.caches = OptimizerCaches()
        self.tracer = tracer or None
        self.metrics = metrics

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative fast-path counters."""
        return self.caches.stats

    # -- phase 1 -------------------------------------------------------------------

    def choose_plan(self, query: Query, mode: OptimizerMode) -> PlanNode:
        """Phase 1: pick the best sequential plan under ``mode``."""
        if mode == OptimizerMode.BUSHY_PAR:
            space = "bushy"
            cost = ParcostObjective(
                self.catalog,
                machine=self.machine,
                cost_model=self.cost_model,
                caches=self.caches,
            )
        elif mode == OptimizerMode.BUSHY_SEQ:
            space = "bushy"
            cost = self._seqcost
        elif mode == OptimizerMode.LEFT_DEEP_SEQ:
            space = "left-deep"
            cost = self._seqcost
        else:  # pragma: no cover - exhaustiveness guard
            raise OptimizerError(f"unknown mode: {mode!r}")
        return enumerate_space(
            query,
            self.catalog,
            cost,
            space=space,
            methods=self.methods,
            stats=self.cache_stats,
        )

    def _seqcost(self, plan: PlanNode) -> float:
        caches = self.caches
        if plan.node_id in caches.node_estimates:
            caches.stats.estimate_hits += 1
        else:
            caches.stats.estimate_misses += 1
        return estimate_plan(
            plan,
            self.catalog,
            cost_model=self.cost_model,
            machine=self.machine,
            cache=caches.node_estimates,
        ).seqcost()

    # -- phase 2 -------------------------------------------------------------------

    def parallelize(
        self, plan: PlanNode, *, policy: SchedulingPolicy | None = None
    ) -> ParallelCost:
        """Phase 2: fragment the plan and schedule its tasks."""
        return parallel_cost(
            plan,
            self.catalog,
            machine=self.machine,
            cost_model=self.cost_model,
            policy=policy,
            caches=self.caches,
        )

    # -- both ---------------------------------------------------------------------

    def optimize(
        self,
        query: Query,
        *,
        mode: OptimizerMode = OptimizerMode.BUSHY_PAR,
        policy: SchedulingPolicy | None = None,
        budget=None,
        now: float = 0.0,
    ) -> OptimizedQuery:
        """Run both phases and return the full result.

        Args:
            budget: an optional
                :class:`~repro.recovery.DeadlineBudget`.  A blown
                budget raises
                :class:`~repro.errors.DeadlineExceededError` before any
                enumeration; a *tight* one (``budget.degraded(now)``)
                deterministically degrades ``BUSHY_PAR`` to the cheap
                ``LEFT_DEEP_SEQ`` space instead of spending the
                remaining budget enumerating bushy shapes.
            now: the virtual time the budget is measured against.

        Raises:
            DeadlineExceededError: ``budget`` was already exceeded.
        """
        if budget is not None:
            budget.require(now)
            if mode == OptimizerMode.BUSHY_PAR and budget.degraded(now):
                mode = OptimizerMode.LEFT_DEEP_SEQ
        stats = self.cache_stats
        observing = self.tracer is not None or self.metrics is not None
        before = stats.as_dict() if observing else None
        t0 = time.perf_counter() if self.metrics is not None else 0.0
        plan = self.choose_plan(query, mode)
        if self.metrics is not None:
            self.metrics.histogram("optimizer.phase1_seconds").observe(
                time.perf_counter() - t0
            )
        parallel = self.parallelize(plan, policy=policy)
        if observing:
            after = stats.as_dict()
            assert before is not None
            delta = {
                key: max(0, after[key] - before[key]) for key in after
            }
            if self.metrics is not None:
                for key, value in delta.items():
                    self.metrics.counter(f"optimizer.{key}").inc(value)
            if self.tracer is not None:
                # Deterministic: virtual t=0, counter deltas only — no
                # wall time reaches the trace.
                self.tracer.instant(
                    f"optimize {len(query.relations)} relations",
                    t=0.0,
                    track="optimizer",
                    cat="optimizer",
                    args={
                        "mode": mode.value,
                        "candidates": delta["candidates"],
                        "pruned": delta["pruned"],
                        "costed": delta["costed"],
                    },
                )
        return OptimizedQuery(
            query=query,
            mode=mode,
            plan=plan,
            parallel=parallel,
            stats=stats.as_dict(),
        )
