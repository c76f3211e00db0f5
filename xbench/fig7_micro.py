"""``fig7_micro``: the Figure-7 grid on the page-level micro engine.

Why: ``sim.micro`` and ``faults`` run nowhere else.  The uniform kinds
(ALL_CPU, ALL_IO) bypass pairing and adjustment, the mixed kinds
(EXTREME, RANDOM) exercise them, and the runs under the ``mixed`` fault
preset take the engine's cold escape paths (crashes, stalls, dropped
protocol messages).

Checks: every healthy run serves exactly one io per page, and every task
of a faulted run finishes.
"""

from __future__ import annotations

from repro import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    MicroSimulator,
    WorkloadKind,
    generate_specs,
    paper_machine,
    preset_schedule,
)
from repro.workloads import WorkloadConfig

from stats import percentile, tail_percentile

#: Workload instances per set-up.  The adaptive win varies by about two
#: points from instance to instance, so the headline needs many.
INSTANCES = 32
#: Instances per pass; pass ``i`` runs block ``i % BLOCKS``.
BLOCK = 8
BLOCKS = INSTANCES // BLOCK
TASKS = 10
#: Task length in pages (the paper's range is 100-10,000; shorter tasks
#: give more instances per second at the same win).
MIN_PAGES = 100
MAX_PAGES = 500
#: Healthy engine runs every run reaches: enough for a p95.
TAIL_FLOOR = 200
RUNS_PER_PASS = BLOCK * 4 * 3
KINDS = (WorkloadKind.ALL_CPU, WorkloadKind.ALL_IO, WorkloadKind.EXTREME, WorkloadKind.RANDOM)
MIXED = (WorkloadKind.EXTREME, WorkloadKind.RANDOM)
POLICIES = (
    ("intra", lambda: IntraOnlyPolicy(integral=True)),
    ("without_adj", lambda: InterWithoutAdjPolicy(integral=True)),
    ("with_adj", lambda: InterWithAdjPolicy(integral=True)),
)


class Fig7Micro:
    name = "fig7_micro"
    layers = ("micro", "core")
    #: Passes per cycle: a cycle runs every instance once.
    cycle = BLOCKS
    min_passes = max(BLOCKS, -(-TAIL_FLOOR // RUNS_PER_PASS))

    def setup(self, seed: int) -> tuple:
        machine = paper_machine()
        config = WorkloadConfig(n_tasks=TASKS, min_pages=MIN_PAGES, max_pages=MAX_PAGES)
        instances = []
        for i in range(INSTANCES):
            sub = seed * 10_007 + i
            instances.append(
                (sub, {
                    kind: generate_specs(kind, seed=sub, machine=machine, config=config)
                    for kind in KINDS
                })
            )
        return machine, instances

    def run_pass(self, state: tuple, index: int, run) -> None:
        machine, instances = state
        block = index % BLOCKS
        for sub, by_kind in instances[block * BLOCK:(block + 1) * BLOCK]:
            for kind in KINDS:
                specs = by_kind[kind]
                pages = sum(spec.n_pages for spec in specs)
                for label, make_policy in POLICIES:
                    policy = make_policy()
                    result = run.timed(
                        "healthy",
                        lambda: MicroSimulator(machine, seed=sub).run(list(specs), policy),
                        units=pages,
                    )
                    if result is None:
                        continue
                    # Runs differ in length, so their latency is compared
                    # per thousand pages.
                    run.record("per_kpage", run.samples["healthy"][-1] * 1000 / pages)
                    run.check(
                        "healthy",
                        int(result.io_served) == pages,
                        f"{kind.value}/{label} instance {sub}: "
                        f"{result.io_served} ios for {pages} pages",
                    )
                    if index == 0:
                        run.counts["micro.events"] += 2 * int(result.io_served)
                        run.counts["micro.adjustments"] += result.adjustments
                    if index < BLOCKS and kind in MIXED and label != "without_adj":
                        run.virt[label].append(result.elapsed)
                    if kind in MIXED and label == "with_adj":
                        self._faulted(machine, sub, specs, result.elapsed, run, index)

    def _faulted(self, machine, sub: int, specs, horizon: float, run, index: int) -> None:
        """Replay a mixed workload under the ``mixed`` fault preset."""
        pages = sum(spec.n_pages for spec in specs)
        policy = InterWithAdjPolicy(integral=True, degradation_aware=True)
        simulator = MicroSimulator(
            machine, seed=sub, faults=preset_schedule("mixed", horizon=horizon),
            fault_seed=sub,
        )
        result = run.timed("faulted", lambda: simulator.run(list(specs), policy), units=pages)
        if result is None:
            return
        run.check(
            "faulted",
            len(result.records) == len(specs) and not result.cancel_records,
            f"instance {sub}: {len(result.records)} of {len(specs)} tasks finished",
        )
        if index == 0:
            run.counts["micro.events"] += 2 * int(result.io_served)
            run.counts["micro.adjustments"] += result.adjustments

    def report(self, run) -> tuple[dict, list]:
        scaled = run.scaled()
        runs = scaled.samples["per_kpage"]
        tail = tail_percentile(runs, TAIL_FLOOR)
        p50 = percentile(runs, 50)
        intra = sum(run.virt["intra"])
        adaptive = sum(run.virt["with_adj"])
        win_pct = 100.0 * (1.0 - adaptive / intra)
        generic = {
            "ops_per_s": scaled.units / scaled.busy,
            "op_p50_ms": p50 * 1000,
            "op_tail_ms": tail.value * 1000,
            "virt_s": adaptive / len(run.virt["with_adj"]),
        }
        lines = [
            ("micro.pages_per_s", scaled.units / scaled.busy, "1/s",
             f"{scaled.units} pages, healthy and faulted"),
            ("micro.virt_win_pct", win_pct, "%",
             f"INTER-WITH-ADJ over INTRA-ONLY, EXTREME+RANDOM, n={len(run.virt['intra'])}"),
            ("micro.kpage_p50_ms", p50 * 1000, "ms",
             f"n={len(runs)} healthy engine runs, wall per 1000 pages"),
            (f"micro.kpage_{tail.label}_ms", tail.value * 1000, "ms", f"n={tail.n}"),
            ("micro.faulted_p50_ms", percentile(scaled.samples["faulted"], 50) * 1000, "ms",
             f"n={len(scaled.samples['faulted'])}"),
            ("micro.adj_virt_mean_s", generic["virt_s"], "s",
             "INTER-WITH-ADJ makespan, EXTREME+RANDOM"),
        ]
        return generic, lines
