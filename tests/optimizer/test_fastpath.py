"""The optimizer fast path: caches, pruning safety, determinism.

The tentpole guarantee under test: with memoization and
branch-and-bound pruning on, the optimizer chooses *byte-identical*
plans (same tree, same parcost float) as the exhaustive reference —
because every cached value is exact and every pruned candidate is
provably beaten.  The golden-plan corpus replays complete searches;
these tests pin down the individual mechanisms.
"""

from __future__ import annotations

import pytest

from repro.bench.optbench import bench_workload
from repro.config import paper_machine
from repro.core.schedulers import InterWithAdjPolicy
from repro.optimizer import (
    CacheStats,
    OptimizerCaches,
    OptimizerMode,
    ParcostObjective,
    TwoPhaseOptimizer,
    enumerate_all_bushy,
    enumerate_space,
    parallel_cost,
    parcost,
    parcost_lower_bound,
    plan_shape_key,
)
from repro.optimizer.enumeration import PRUNE_MARGIN, delivered_order
from repro.optimizer.parcost import _policy_cache_key
from repro.plans.costing import estimate_plan
from repro.plans.fragments import fragment_plan
from repro.plans.nodes import HashJoinNode, SeqScanNode, SortNode
from repro.workloads.queries import chain_join, star_join


@pytest.fixture(scope="module")
def chain():
    return chain_join(3, rows_per_relation=300, seed=0)


@pytest.fixture(scope="module")
def star():
    return star_join(3, fact_rows=400, dimension_rows=80, seed=0)


class TestFragmentSignature:
    def test_structurally_equal_plans_share_a_signature(self, chain):
        def build():
            plan = HashJoinNode(
                HashJoinNode(
                    SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
                ),
                SeqScanNode("s3"),
                "s2_r",
                "s3_l",
            )
            return fragment_plan(plan, estimate_plan(plan, chain.catalog))

        assert build().signature() == build().signature()

    def test_different_structure_different_signature(self, chain):
        a = HashJoinNode(SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l")
        b = HashJoinNode(SeqScanNode("s2"), SeqScanNode("s1"), "s2_l", "s1_r")
        sig_a = fragment_plan(a, estimate_plan(a, chain.catalog)).signature()
        sig_b = fragment_plan(b, estimate_plan(b, chain.catalog)).signature()
        assert sig_a != sig_b

    def test_signature_requires_profiled_fragments(self):
        from repro.errors import PlanError

        plan = SeqScanNode("s1")
        with pytest.raises(PlanError):
            fragment_plan(plan).signature()


class TestParcostCache:
    def test_repeat_plan_is_a_cache_hit_with_the_exact_float(self, chain):
        caches = OptimizerCaches()
        objective = ParcostObjective(chain.catalog, caches=caches)
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        first = objective(plan)
        assert caches.stats.parcost_misses == 1
        second = objective(plan)
        assert caches.stats.parcost_hits == 1
        assert first == second
        assert first == parcost(plan, chain.catalog)

    def test_structurally_equal_copy_hits_the_cache(self, chain):
        caches = OptimizerCaches()
        objective = ParcostObjective(chain.catalog, caches=caches)

        def build():
            return HashJoinNode(
                SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
            )

        objective(build())
        objective(build())
        assert caches.stats.parcost_hits == 1
        assert caches.stats.parcost_misses == 1

    def test_unknown_policy_class_is_never_cached(self, chain):
        class TweakedPolicy(InterWithAdjPolicy):
            pass

        assert _policy_cache_key(TweakedPolicy()) is None
        caches = OptimizerCaches()
        objective = ParcostObjective(
            chain.catalog, policy=TweakedPolicy(), caches=caches
        )
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        objective(plan)
        objective(plan)
        assert caches.stats.parcost_misses == 2
        assert not caches.parcost_elapsed

    def test_stock_policy_keys_distinguish_configs(self):
        assert _policy_cache_key(InterWithAdjPolicy()) != _policy_cache_key(
            InterWithAdjPolicy(pairing="fifo")
        )
        assert _policy_cache_key(None) == _policy_cache_key(
            InterWithAdjPolicy()
        )

    def test_uncached_objective_offers_no_pruning_hook(self, chain):
        assert ParcostObjective(chain.catalog, caches=None).lower_bound is None
        assert (
            ParcostObjective(
                chain.catalog, caches=OptimizerCaches()
            ).lower_bound
            is not None
        )


class TestLowerBound:
    def test_bound_never_exceeds_parcost_beyond_the_margin(self, chain):
        machine = paper_machine()
        checked = 0
        for plan in enumerate_all_bushy(
            chain.query, chain.catalog, methods=("hash", "merge", "nestloop")
        ):
            estimate = estimate_plan(chain.query and plan, chain.catalog)
            bound = parcost_lower_bound(estimate, machine)
            cost = parcost(plan, chain.catalog, estimate=estimate)
            assert bound <= cost * (1.0 + PRUNE_MARGIN)
            checked += 1
        assert checked > 50

    def test_pruning_stats_account_for_every_candidate(self, star):
        caches = OptimizerCaches()
        objective = ParcostObjective(star.catalog, caches=caches)
        enumerate_space(
            star.query,
            star.catalog,
            objective,
            space="bushy",
            stats=caches.stats,
        )
        stats = caches.stats
        assert stats.candidates == stats.costed + stats.pruned
        assert stats.pruned > 0  # the bound skip actually fires
        assert stats.parcost_hits + stats.parcost_misses == stats.costed
        assert stats.parcost_hits > 0  # signature sharing actually fires
        assert 0.0 < stats.parcost_hit_rate < 1.0
        as_dict = stats.as_dict()
        assert as_dict["candidates"] == stats.candidates
        stats.reset()
        assert stats.candidates == 0


class TestDeliveredOrder:
    def test_sort_delivers_its_keys(self):
        plan = SortNode(SeqScanNode("s1"), ("s1_r",))
        assert delivered_order(plan) == ("s1_r",)

    def test_plain_scan_delivers_nothing(self):
        assert delivered_order(SeqScanNode("s1")) == ()


class TestDeterminism:
    def test_repeat_searches_choose_the_same_plan(self, star):
        keys = set()
        for __ in range(3):
            caches = OptimizerCaches()
            objective = ParcostObjective(star.catalog, caches=caches)
            plan = enumerate_space(
                star.query, star.catalog, objective, space="bushy"
            )
            keys.add(plan_shape_key(plan))
        assert len(keys) == 1

    def test_shape_key_ignores_node_identity(self):
        def build():
            return HashJoinNode(
                SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
            )

        assert plan_shape_key(build()) == plan_shape_key(build())


class TestEstimateThreading:
    def test_estimate_cache_reuses_subtree_estimates(self, chain):
        cache = {}
        inner = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        estimate_plan(inner, chain.catalog, cache=cache)
        cached_before = dict(cache)
        outer = HashJoinNode(inner, SeqScanNode("s3"), "s2_r", "s3_l")
        estimate = estimate_plan(outer, chain.catalog, cache=cache)
        # The inner join's estimates were reused, not recomputed.
        for node_id, node_estimate in cached_before.items():
            assert cache[node_id] is node_estimate
        fresh = estimate_plan(outer, chain.catalog)
        assert estimate.seqcost() == fresh.seqcost()

    def test_parcost_accepts_a_precomputed_estimate(self, chain):
        plan = HashJoinNode(
            SeqScanNode("s1"), SeqScanNode("s2"), "s1_r", "s2_l"
        )
        estimate = estimate_plan(plan, chain.catalog)
        assert parcost(plan, chain.catalog, estimate=estimate) == parcost(
            plan, chain.catalog
        )


class TestJoinGraph:
    @pytest.mark.parametrize(
        "schema_factory",
        [
            lambda: chain_join(5, rows_per_relation=100, seed=0),
            lambda: star_join(4, fact_rows=200, dimension_rows=50, seed=0),
        ],
        ids=["chain5", "star4"],
    )
    def test_index_matches_query_methods(self, schema_factory):
        from itertools import combinations

        schema = schema_factory()
        query = schema.query
        graph = query.join_index()
        rels = sorted(query.relations)
        subsets = [
            frozenset(c)
            for size in range(1, len(rels) + 1)
            for c in combinations(rels, size)
        ]
        for subset in subsets:
            assert graph.is_connected(subset) == query.is_connected(subset)
            # memoized second call agrees
            assert graph.is_connected(subset) == query.is_connected(subset)
        for a in subsets:
            for b in subsets:
                if a & b:
                    continue
                # Same predicates in the same (query.joins) order — the
                # enumerator's primary-predicate choice depends on it.
                assert graph.joins_between(a, b) == query.joins_between(a, b)


class TestTwoPhaseFastPath:
    def test_fast_and_slow_optimizers_agree(self, star):
        # The oracle is the exhaustive search: no memos, no pruning
        # (caches=None objectives), then phase 2 on the chosen plan.
        # optbench times only the fast path, so its 4-relation workload
        # is checked here too (it equals ``star`` at today's row scale).
        machine = paper_machine()
        for schema in (star, bench_workload(4)):

            def seqcost(plan):
                return estimate_plan(
                    plan, schema.catalog, machine=machine
                ).seqcost()

            exhaustive = {
                OptimizerMode.LEFT_DEEP_SEQ: ("left-deep", seqcost),
                OptimizerMode.BUSHY_SEQ: ("bushy", seqcost),
                OptimizerMode.BUSHY_PAR: (
                    "bushy",
                    ParcostObjective(schema.catalog, machine=machine),
                ),
            }
            assert set(exhaustive) == set(OptimizerMode)
            fast = TwoPhaseOptimizer(schema.catalog, machine=machine)
            for mode, (space, cost) in exhaustive.items():
                slow = enumerate_space(
                    schema.query, schema.catalog, cost, space=space
                )
                result = fast.optimize(schema.query, mode=mode)
                assert plan_shape_key(result.plan) == plan_shape_key(slow)
                assert result.parallel.elapsed == parallel_cost(
                    slow, schema.catalog, machine=machine
                ).elapsed

    def test_stats_exposed_only_on_the_fast_path(self, star):
        fast = TwoPhaseOptimizer(star.catalog)
        result = fast.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        assert result.stats["candidates"] > 0
        assert isinstance(fast.cache_stats, CacheStats)
        # The uncached exhaustive objective keeps no counters.
        assert ParcostObjective(star.catalog).stats is None

    def test_caches_clear_resets_everything(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        assert optimizer.caches.parcost_elapsed
        assert optimizer.caches.node_estimates
        optimizer.caches.clear()
        assert not optimizer.caches.parcost_elapsed
        assert not optimizer.caches.node_estimates
        assert optimizer.caches.stats.candidates == 0

    def test_second_query_benefits_from_warm_caches(self, star):
        optimizer = TwoPhaseOptimizer(star.catalog)
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        sims_cold = optimizer.caches.stats.parcost_misses
        optimizer.optimize(star.query, mode=OptimizerMode.BUSHY_PAR)
        sims_warm = optimizer.caches.stats.parcost_misses - sims_cold
        assert sims_warm == 0  # every signature already simulated
