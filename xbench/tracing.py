"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of each layer for the
length of a ``with`` block and restores them afterwards.  A wrapped
function imported elsewhere with ``from ... import`` is patched in every
``repro`` module that holds it, so callers inside the package see the
wrapper too.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists.
A span is only recorded inside an operation (:meth:`Tracer.op`), so a
benchmark's own output checks never show up as layer work.  A wrapped
generator records one span per resumption: time spent between two
resumptions belongs to the consumer, not to the generator.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from stats import self_times

#: (span name, "module:qualname") of every wrapped callable.  The span
#: name's first component is the layer it is charged to.
WRAPPED = (
    ("storage.heap_insert", "repro.storage.heap:HeapFile.insert"),
    # HeapFile.scan delegates to scan_pages, and the executor's seq scan
    # calls scan_pages directly, so this one wrapper sees every heap scan.
    ("storage.heap_scan", "repro.storage.heap:HeapFile.scan_pages"),
    ("storage.heap_fetch", "repro.storage.heap:HeapFile.fetch"),
    ("storage.btree", "repro.storage.btree:BTreeIndex.insert"),
    ("storage.btree", "repro.storage.btree:BTreeIndex.search"),
    ("storage.btree", "repro.storage.btree:BTreeIndex.range_scan"),
    ("catalog.encode", "repro.catalog.schema:Schema.encode_row"),
    ("catalog.decode", "repro.catalog.schema:Schema.decode_row"),
    ("catalog.analyze", "repro.plans.costing:analyze_table"),
    ("executor.run", "repro.sql.translate:TranslatedQuery.run"),
    ("sql.translate", "repro.sql.translate:translate"),
    ("optimizer.optimize", "repro.optimizer.twophase:TwoPhaseOptimizer.optimize"),
    ("optimizer.enumerate", "repro.optimizer.enumeration:enumerate_space"),
    ("optimizer.parcost", "repro.optimizer.parcost:parcost"),
    ("optimizer.parcost", "repro.optimizer.parcost:parallel_cost"),
    ("plans.estimate", "repro.plans.costing:estimate_plan"),
    ("plans.fragment", "repro.plans.fragments:fragment_plan"),
    ("fluid.run", "repro.sim.fluid:FluidSimulator.run"),
    ("core.balance_point", "repro.core.balance:balance_point"),
    ("core.policy_decide", "repro.core.schedulers:IntraOnlyPolicy.decide"),
    ("core.policy_decide", "repro.core.schedulers:InterWithoutAdjPolicy.decide"),
    ("core.policy_decide", "repro.core.schedulers:InterWithAdjPolicy.decide"),
    ("micro.run", "repro.sim.micro:MicroSimulator.run"),
    ("service.gate_decide", "repro.service.server:AdmissionGate.decide"),
    ("service.run", "repro.service.server:QueryService.run"),
)


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder that patches the wrapped layers while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Calls and generator yields per (op kind, span name).
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------------

    @property
    def kind(self) -> str:
        """Kind of the operation in progress."""
        return self.ops[self._op]

    def _open(self, name: str) -> int | None:
        if not self._stack:
            return None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """One operation: its root span and the op id its layer spans share."""
        self.ops.append(kind)
        self._op = len(self.ops) - 1
        index = len(self.spans)
        self.spans.append([f"op.{kind}", time.perf_counter(), 0.0, None, self._op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if tracer._stack:
                    calls[tracer.kind, name] += 1
                inner = fn(*args, **kwargs)

                def resumptions():
                    while True:
                        index = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(index)
                        if index is not None:
                            yields[tracer.kind, name] += 1
                        yield item

                return resumptions()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            if index is not None:
                calls[tracer.kind, name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, target in WRAPPED:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            # A module-level function: patch it wherever it was imported.
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        owned = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- digest ---------------------------------------------------------------

    def span_counts(self) -> Counter:
        """Recorded spans per layer (op roots excluded)."""
        counts: Counter = Counter()
        for span in self.spans:
            layer = span[0].split(".", 1)[0]
            if layer != "op":
                counts[layer] += 1
        return counts

    def self_ms(self) -> dict[tuple[str, str], float]:
        """Self time in milliseconds per (op kind, span name)."""
        keyed = [
            (f"{self.ops[op]}|{name}", start, end, parent)
            for name, start, end, parent, op in self.spans
        ]
        return {
            tuple(key.split("|", 1)): seconds * 1000.0
            for key, seconds in self_times(keyed).items()
        }

    def write(self, path: Path) -> None:
        """Write every span and op kind out as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "ops": self.ops,
                    "spans": self.spans,
                },
                handle,
            )
