"""What a workload records while it runs, and the memo policy it runs under.

Memo policy: every timed operation starts with the process-global
``balance_point`` memo cleared, and every optimization uses a fresh
:class:`~repro.TwoPhaseOptimizer`, so the optimizer caches start cold
too.  Set-up starts with the arrival-pool memo cleared.  Both sides of
any comparison therefore pay the same cold start on every operation.

Host speed: on a shared virtual machine the same Python code runs up to
twice as slowly for tens of seconds at a time.  :func:`host_probe` times
a fixed piece of interpreter work of the benchmark's own around every
set-up and at every pass boundary, and wall times are reported scaled to
a host on which the probe takes :data:`PROBE_REF_S`.  The program under
test never runs inside the probe, so a change to the program moves the
scaled numbers exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import nullcontext

from repro.core.balance import clear_point_cache

#: Probe time of the reference host the scaled wall times refer to.
PROBE_REF_S = 0.012


def cold() -> None:
    """Start the next operation with the process-global memos empty."""
    clear_point_cache()


#: 32 MiB read at pseudo-random offsets by the probe, far beyond the CPU
#: caches.  One untracked object, so the collector never walks it.
_SLOTS = 1 << 22
_slots = array("q", bytes(8 * _SLOTS))


def _probe_once() -> float:
    # Integer arithmetic, building and sorting small tuples, and reads
    # scattered over a large buffer: the interpreter work and the cache
    # misses the workloads spend their time in.  Host contention slows
    # cache misses more than cache-resident arithmetic, so a probe
    # without them under-reads the slowdown the workloads see.
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    rows = {}
    for i in range(3_400):
        rows[i % 997] = (i, "row%d" % i, i * 3)
    sorted(rows.values())
    slot = 1
    for _ in range(20_000):
        slot = (slot * 1_103_515_245 + 12_345) & (_SLOTS - 1)
        total += _slots[slot]
    return time.perf_counter() - start


def host_probe() -> float:
    """Seconds the host takes for a fixed piece of interpreter work.

    The best of three, with the cyclic collector off, so neither a
    preemption nor the size of the program's heap enters the number.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def probed(call):
    """``(result, host scale)`` of a call with a probe on either side.

    The scale turns the call's wall time into reference-host seconds.
    """
    before = host_probe()
    result = call()
    after = host_probe()
    return result, PROBE_REF_S / ((before + after) / 2)


class Pass:
    """Wall time, work units and latency samples of one pass."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.units = 0
        self.busy = 0.0
        #: Reference-host seconds per wall second while the pass ran.
        self.scale = 1.0


class Run:
    """Samples, counts and check results of one workload run.

    Args:
        tracer: a :class:`tracing.Tracer` when this is the traced run;
            each timed operation then opens one op span.
    """

    def __init__(self, tracer=None, *, probing: bool = False) -> None:
        self.tracer = tracer
        #: Wall seconds of each timed call, by operation kind.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        #: Work units completed by timed calls (statements, pages, ...).
        self.units = 0
        #: Wall seconds spent inside timed calls.
        self.busy = 0.0
        #: The same, pass by pass (see :meth:`scaled`).
        self.passes: list[Pass] = [Pass()]
        #: Host probe seconds at each pass boundary, when probing.
        self.probes: list[float] = [host_probe()] if probing else []
        #: Deterministic counts the layers report through public results.
        self.counts: Counter = Counter()
        #: Simulated (virtual-time) results, by name.
        self.virt: dict[str, list[float]] = defaultdict(list)
        #: First result digest of each repeated operation, by position.
        self.digests: dict = {}

    def new_pass(self) -> None:
        """End the current pass and start the next.

        When probing, the host is probed here and a pass is scaled by the
        probes on either side of it.  A workload whose passes take
        seconds also calls this inside a pass, so host speed is sampled
        as often on every workload.
        """
        current = self.passes[-1]
        if self.probes:
            self.probes.append(host_probe())
            current.scale = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        if current.units:
            self.passes.append(Pass())

    def timed(self, kind: str, call, *, units: int = 1):
        """Run one operation, timing only the call into the system.

        Returns the call's result, or None when it raised; a raising
        operation counts as failed and the run goes on.
        """
        self.attempted += 1
        cold()
        span = self.tracer.op(kind) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = call()
        except Exception as exc:  # noqa: BLE001 - the run must keep going
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        for record in (self, self.passes[-1]):
            record.samples[kind].append(elapsed)
            record.busy += elapsed
            record.units += units
        return result

    def record(self, kind: str, value: float) -> None:
        """Add a derived latency sample (not a timed call) to this pass."""
        self.samples[kind].append(value)
        self.passes[-1].samples[kind].append(value)

    def scaled(self) -> Pass:
        """Wall time and samples of every pass, scaled to the reference host."""
        merged = Pass()
        for record in self.passes:
            merged.units += record.units
            merged.busy += record.busy * record.scale
            for kind, values in record.samples.items():
                merged.samples[kind].extend(v * record.scale for v in values)
        return merged

    def check(self, kind: str, ok: bool, detail: str) -> None:
        """Count a failed output check; ``detail`` says what was wrong."""
        if not ok:
            self.fail(kind, detail)

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"check failed: {kind}: {detail}", file=sys.stderr)
