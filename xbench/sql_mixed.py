"""``sql_mixed``: one client in a closed loop against an ``XprsSystem``.

Why: it is the only workload where storage, catalog and executor do most
of the work, and it has writes beside reads.  Translation (parser plus
join-order search) is most of a point lookup while the heap scan is most
of an analytic query, so a front-end gain and a data-path gain move
different metrics.

Every statement is checked against a shadow Python model of the
generated rows, including the rows inserted during the run.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro import XprsSystem

from stats import percentile, tail_percentile

EMP_ROWS = 20_000
DEPTS = 40
INSERT_BATCH = 50
#: Statements of one round, by kind.  Rounds repeat until time is up.
ROUND = (
    ("point", 75),
    ("range", 14),
    ("scan", 2),
    ("join", 2),
    ("explain", 4),
    ("insert", 3),
)
#: Rounds between rebuilds of the database.  Inserts grow ``emp`` by 150
#: rows a round; rebuilding makes round ``i + CYCLE`` repeat round ``i``
#: exactly, on the same table size and with the same statements.
CYCLE = 8
LOOKUPS_PER_ROUND = dict(ROUND)["point"] + dict(ROUND)["range"]
#: Lookups every run reaches: one cycle's, enough for a p95.
TAIL_FLOOR = CYCLE * LOOKUPS_PER_ROUND

EMP_COLUMNS = [("eid", "int4"), ("ename", "text"), ("edno", "int4"), ("esal", "int4")]
DEPT_COLUMNS = [("dno", "int4"), ("dname", "text"), ("dbudget", "int4")]


def _emp_row(rng: random.Random, eid: int) -> tuple:
    return (eid, f"emp{eid}", rng.randrange(DEPTS), rng.randrange(1_000, 100_000))


class State:
    """The system under test plus the shadow model of its rows."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.build()

    def build(self) -> None:
        """(Re)create the database and the model from the seed."""
        rng = random.Random(self.seed)
        eids = list(range(EMP_ROWS))
        rng.shuffle(eids)
        rows = [_emp_row(rng, eid) for eid in eids]
        self.model: dict[int, tuple] = {row[0]: row for row in rows}
        self.depts = {dno: (dno, f"dept{dno}", 100 * dno) for dno in range(DEPTS)}
        self.system = XprsSystem()
        self.system.create_table("emp", EMP_COLUMNS, rows)
        self.system.create_index("emp", "eid")
        self.system.create_table("dept", DEPT_COLUMNS, list(self.depts.values()))

    @property
    def next_eid(self) -> int:
        return len(self.model)


class SqlMixed:
    name = "sql_mixed"
    layers = ("storage", "catalog", "executor", "sql", "optimizer", "plans", "fluid", "core")
    #: Passes per cycle: a run measures whole rebuild cycles.
    cycle = CYCLE
    min_passes = CYCLE

    def setup(self, seed: int) -> State:
        return State(seed)

    def run_pass(self, state: State, index: int, run) -> None:
        """One round of statements, in a seeded order."""
        if index and index % CYCLE == 0:
            state.build()
        rng = random.Random(state.seed * 7_919 + index % CYCLE)
        kinds = [kind for kind, count in ROUND for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            getattr(self, f"_{kind}")(state, rng, run, index)

    # -- statements ---------------------------------------------------------------

    def _select(self, state, run, kind: str, sql: str):
        """Time one SELECT; count the simulated pages it read."""
        array = state.system.array
        before = array.total_ios
        result = run.timed(kind, lambda: state.system.execute(sql))
        pages = array.total_ios - before
        run.counts["storage.pages_read"] += pages
        if kind == "lookup":
            run.counts["lookup.pages"] += pages
        if result is not None:
            run.counts["executor.rows_returned"] += len(result)
        return result

    def _point(self, state, rng, run, index) -> None:
        eid = rng.randrange(state.next_eid)
        result = self._select(state, run, "lookup", f"SELECT * FROM emp WHERE eid = {eid}")
        if result is not None:
            run.check("lookup", result == [state.model[eid]], f"eid {eid}: {result!r}")

    def _range(self, state, rng, run, index) -> None:
        low = rng.randrange(state.next_eid - 20)
        high = low + 19
        result = self._select(
            state, run, "lookup",
            f"SELECT eid, esal FROM emp WHERE eid BETWEEN {low} AND {high}",
        )
        if result is not None:
            expected = [(e, state.model[e][3]) for e in range(low, high + 1)]
            run.check("lookup", sorted(result) == expected, f"range {low}..{high}")

    def _scan(self, state, rng, run, index) -> None:
        floor = rng.randrange(1_000, 90_000)
        result = self._select(
            state, run, "analytic",
            f"SELECT count(*), sum(esal) FROM emp WHERE esal > {floor}",
        )
        if result is not None:
            sals = [row[3] for row in state.model.values() if row[3] > floor]
            expected = [(len(sals), sum(sals))]
            run.check("analytic", result == expected, f"scan esal > {floor}: {result!r}")

    def _join(self, state, rng, run, index) -> None:
        floor = rng.randrange(1_000, 90_000)
        result = self._select(
            state, run, "analytic",
            "SELECT dname, count(*), sum(esal) FROM emp, dept "
            f"WHERE edno = dno AND esal > {floor} GROUP BY dname",
        )
        if result is not None:
            groups: dict[str, list[int]] = defaultdict(list)
            for row in state.model.values():
                if row[3] > floor:
                    groups[state.depts[row[2]][1]].append(row[3])
            expected = sorted((d, len(s), sum(s)) for d, s in groups.items())
            run.check("analytic", sorted(result) == expected, f"join esal > {floor}")

    def _explain(self, state, rng, run, index) -> None:
        bound = rng.randrange(10, state.next_eid)
        sql = f"SELECT ename, dname FROM emp, dept WHERE edno = dno AND eid < {bound}"
        report = run.timed("explain", lambda: state.system.explain(sql))
        if report is None:
            return
        scheduled = len(report.schedule.records) == len(report.tasks)
        run.check(
            "explain",
            scheduled and report.predicted_elapsed > 0,
            f"eid < {bound}: {len(report.schedule.records)} of {len(report.tasks)} "
            f"fragments scheduled, parcost {report.predicted_elapsed!r}",
        )
        # The first cycle's EXPLAINs give the virtual-time metric: a fixed
        # set, so it is bit-identical for a seed however long the run is.
        if index < CYCLE:
            run.virt["explain_parcost"].append(report.predicted_elapsed)

    def _insert(self, state, rng, run, index) -> None:
        first = state.next_eid
        rows = [_emp_row(rng, eid) for eid in range(first, first + INSERT_BATCH)]
        failed = run.failed
        run.timed("write", lambda: state.system.insert("emp", rows))
        if run.failed != failed:
            return
        for row in rows:
            state.model[row[0]] = row
        entry = state.system.catalog.table("emp")
        heap_rows = entry.heap.row_count
        index_keys = len(entry.index_on("eid").index)
        run.check(
            "write",
            heap_rows == len(state.model) and index_keys == len(state.model),
            f"after insert: heap {heap_rows}, index {index_keys}, "
            f"model {len(state.model)} rows",
        )

    # -- report -----------------------------------------------------------------

    def report(self, run) -> tuple[dict, list]:
        scaled = run.scaled()
        lookups = scaled.samples["lookup"]
        tail = tail_percentile(lookups, TAIL_FLOOR)
        p50 = percentile(lookups, 50)
        virt = percentile(run.virt["explain_parcost"], 50)
        generic = {
            "ops_per_s": scaled.units / scaled.busy,
            "op_p50_ms": p50 * 1000,
            "op_tail_ms": tail.value * 1000,
            "virt_s": virt,
        }
        lines = [
            ("sql.stmts_per_s", scaled.units / scaled.busy, "1/s", f"n={scaled.units}"),
            ("sql.lookup_p50_ms", p50 * 1000, "ms", f"n={len(lookups)}"),
            (f"sql.lookup_{tail.label}_ms", tail.value * 1000, "ms", f"n={tail.n}"),
        ]
        for kind in ("analytic", "write", "explain"):
            values = scaled.samples[kind]
            lines.append(
                (f"sql.{kind}_p50_ms", percentile(values, 50) * 1000, "ms", f"n={len(values)}")
            )
        lines.append(
            ("sql.explain_virt_p50_s", virt, "s",
             f"n={len(run.virt['explain_parcost'])}, predicted parcost")
        )
        return generic, lines
