"""Compiled trace pipeline: pack workload streams once, replay many.

The evaluation matrix runs every workload under ~7 prefetcher configs;
regenerating the instruction stream through Python generators for each
cell dominated wall-clock.  This package compiles a workload's per-core
generators *once* into packed flat arrays (``array('Q')`` pc/address
words plus one flag byte per record), caches the arenas on disk keyed by
the full trace identity, and hands the engine a
:class:`~repro.sim.compile.workload.CompiledWorkload` it can replay
either through the general loop (exact ``Workload`` contract) or through
the engine's fast loop (:mod:`repro.sim.vector`).

See ``docs/performance.md`` for the cache layout, invalidation keys, and
when the fast loop engages.
"""

from repro.sim.compile.cache import TraceCache, compile_counters, trace_key
from repro.sim.compile.packed import (
    PACK_FORMAT,
    PackedCoreTrace,
    pack_finite,
    pack_records,
)
from repro.sim.compile.workload import (
    CompiledWorkload,
    compile_trace_files,
    compile_workload,
    write_compiled_trace,
)

__all__ = [
    "PACK_FORMAT",
    "PackedCoreTrace",
    "TraceCache",
    "CompiledWorkload",
    "compile_counters",
    "compile_trace_files",
    "compile_workload",
    "pack_finite",
    "pack_records",
    "trace_key",
    "write_compiled_trace",
]
