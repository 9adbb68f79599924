"""Trace records: the unit of work the simulator consumes.

A workload generator yields :class:`TraceRecord` objects.  Each record is
one *retired instruction*; memory instructions carry a virtual address.
``depends_on_prev_load`` marks true data dependences on the previous load
(pointer chasing), which the timing model serialises — this is what makes
temporally-correlated workloads like Zeus gain little from spatial
prefetching even when their accesses are predictable (Section VI-C).
"""

from __future__ import annotations

from typing import NamedTuple


class TraceRecord(NamedTuple):
    """One instruction of a workload trace.

    A named tuple: immutable (assigning a field raises
    ``AttributeError``), so generators may yield one shared record many
    times, and equal to the plain tuple of its fields in field order,
    ``(pc, address, is_mem, is_write, depends_on_prev_load)``.
    """

    pc: int
    address: int = 0  # virtual byte address; meaningful iff is_mem
    is_mem: bool = False
    is_write: bool = False
    depends_on_prev_load: bool = False

    @classmethod
    def compute(cls, pc: int) -> "TraceRecord":
        """A non-memory instruction."""
        return cls(pc)

    @classmethod
    def load(
        cls, pc: int, address: int, depends_on_prev_load: bool = False
    ) -> "TraceRecord":
        return cls(pc, address, True, False, depends_on_prev_load)

    @classmethod
    def store(cls, pc: int, address: int) -> "TraceRecord":
        return cls(pc, address, True, True)
