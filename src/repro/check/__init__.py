"""repro.check — runtime invariants, differential testing and fuzzing.

Three pillars plus a serving oracle (see docs/CHECKING.md):

* :class:`InvariantChecker` — opt-in runtime assertions wired into both
  engines via their ``invariants=`` argument; zero-cost when off.
* :mod:`repro.check.differential` — the same randomized workload run
  through micro-vs-fluid, recursion-vs-fluid, optimizer
  fast-vs-exhaustive, and the real executor vs the simulated protocol,
  with bounded-divergence comparisons.
* :mod:`repro.check.accounting` — the serving-accounting oracle: every
  submission ends exactly once and the counters match the outcomes.
* :mod:`repro.check.fuzz` — a seeded scenario generator, property
  runner and shrinker behind ``python -m repro check``.
"""

from __future__ import annotations

from .invariants import InvariantChecker

__all__ = ["InvariantChecker"]
