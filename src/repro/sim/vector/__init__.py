"""The engine's fast loop over packed compiled traces.

:class:`VectorReplay` (``replay``) walks each core's L1 hits and compute
records in plain Python and executes the L1 misses one at a time in
global order through the hierarchy's own miss tail,
``MemoryHierarchy.l1_miss``.  The package name predates the loop's
current form; it stays because tools attribute host time to its
modules by name.
"""

from __future__ import annotations

from repro.sim.vector.replay import VectorReplay

__all__ = ["VectorReplay"]
