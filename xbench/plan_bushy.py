"""``plan_bushy``: two-phase optimization of 8-relation star and chain joins.

Why: here the optimizer, the plans layer and parcost's fluid simulations
do the work.  ``BUSHY_PAR`` costs candidates with parcost (Section 4);
``LEFT_DEEP_SEQ`` costs them with seqcost, so parcost is bypassed.  Star
queries share subplans heavily and chain queries barely do, so a caching
change shows on one and not on the other.

Every chosen plan is re-costed with the public ``parcost`` and must be
``float.hex``-equal to the optimizer's ``predicted_elapsed``.
"""

from __future__ import annotations

from repro import OptimizerMode, TwoPhaseOptimizer, parcost
from repro.workloads import chain_join, star_join

from stats import percentile, tail_percentile

#: Star and chain query pairs per set-up; pass ``i`` optimizes pair
#: ``i % QUERIES``, each query in both modes.
QUERIES = 8
#: Row scale of the legacy ``optbench`` harness (its 8-relation case).
STAR_FACT_ROWS = 400
STAR_DIM_ROWS = 80
CHAIN_ROWS = 300
MODES = (("par", OptimizerMode.BUSHY_PAR), ("seq", OptimizerMode.LEFT_DEEP_SEQ))
#: Star BUSHY_PAR optimizations every run reaches: enough for a p75.
TAIL_FLOOR = 40
STATS = ("candidates", "pruned", "costed", "parcost_hits", "parcost_misses")


class PlanBushy:
    name = "plan_bushy"
    layers = ("storage", "catalog", "optimizer", "plans", "fluid", "core")
    #: Passes per cycle: a cycle optimizes every query pair once.
    cycle = QUERIES
    min_passes = TAIL_FLOOR

    def setup(self, seed: int) -> list:
        pairs = []
        for i in range(QUERIES):
            sub = seed * 1_009 + i
            star = star_join(7, fact_rows=STAR_FACT_ROWS, dimension_rows=STAR_DIM_ROWS, seed=sub)
            chain = chain_join(8, rows_per_relation=CHAIN_ROWS, seed=sub)
            pairs.append((("star", star), ("chain", chain)))
        return pairs

    def run_pass(self, pairs: list, index: int, run) -> None:
        for shape, schema in pairs[index % QUERIES]:
            for label, mode in MODES:
                kind = f"{shape}_{label}"
                optimizer = TwoPhaseOptimizer(schema.catalog)
                result = run.timed(
                    kind, lambda: optimizer.optimize(schema.query, mode=mode)
                )
                if result is None:
                    continue
                recost = parcost(result.plan, schema.catalog)
                run.check(
                    kind,
                    recost.hex() == result.predicted_elapsed.hex(),
                    f"parcost {recost.hex()} != predicted {result.predicted_elapsed.hex()}",
                )
                if index == 0:
                    for key in STATS:
                        run.counts[f"optimizer.{key}"] += result.stats[key]
                if index < QUERIES and label == "par":
                    run.virt["parcost"].append(result.predicted_elapsed)

    def report(self, run) -> tuple[dict, list]:
        scaled = run.scaled()
        headline = scaled.samples["star_par"]
        tail = tail_percentile(headline, TAIL_FLOOR)
        p50 = percentile(headline, 50)
        parcosts = run.virt["parcost"]
        virt = sum(parcosts) / len(parcosts)
        generic = {
            "ops_per_s": scaled.units / scaled.busy,
            "op_p50_ms": p50 * 1000,
            "op_tail_ms": tail.value * 1000,
            "virt_s": virt,
        }
        lines = [
            ("opt.queries_per_s", scaled.units / scaled.busy, "1/s", f"n={scaled.units}"),
            ("opt.optimize_p50_ms", p50 * 1000, "ms",
             f"n={len(headline)}, 8-relation star, BUSHY_PAR"),
            (f"opt.optimize_{tail.label}_ms", tail.value * 1000, "ms", f"n={tail.n}"),
        ]
        for kind in ("star_seq", "chain_par", "chain_seq"):
            values = scaled.samples[kind]
            lines.append(
                (f"opt.{kind}_p50_ms", percentile(values, 50) * 1000, "ms", f"n={len(values)}")
            )
        lines.append(
            ("opt.par_virt_mean_s", virt, "s", f"n={len(parcosts)}, parcost of BUSHY_PAR plans")
        )
        return generic, lines
