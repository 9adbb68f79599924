"""Compiling workloads into replayable packed traces.

:func:`compile_workload` drains a :class:`~repro.workloads.base.Workload`
once — every core generator, exactly the requested number of records —
into per-core packed arenas, consulting (and populating) the on-disk
:class:`~repro.sim.compile.cache.TraceCache` when the caller supplies
the trace's full identity (the workload ``scale``; a bare ``Workload``
object does not record it, so identity-less compiles stay in-memory).

The result, a :class:`CompiledWorkload`, satisfies the ``Workload``
contract (``name`` / ``num_cores`` / ``core_stream``) for every existing
caller — checkers, golden-trace recorders, the general engine loop —
while additionally exposing the raw arenas through :meth:`packed` for
the engine's specialised fast path.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.cpu.trace import TraceRecord
from repro.sim.compile.cache import (
    TraceCache,
    _count,
    key_digest,
    logger,
    trace_key,
)
from repro.sim.compile.packed import PackedCoreTrace, pack_finite, pack_records
from repro.workloads.base import Workload

#: most trace identities the memo keeps: every entry holds an mmap (and
#: its file descriptor) for as long as it stays, and a service's warm
#: workers live as long as their daemon.  Above the 7 traces of the
#: largest benchmark workload, so no sweep point loses its memo hit.
MEMO_ENTRIES = 32

#: per-process memo of mmap-backed arenas, keyed by trace digest, so a
#: serial sweep pays the file open exactly once; least recently used
#: entries leave first
_MEMO: OrderedDict[str, List[PackedCoreTrace]] = OrderedDict()


def _memoize(digest: str, arenas: List[PackedCoreTrace]) -> None:
    """Keep ``arenas`` as the most recently used memo entry."""
    _MEMO.pop(digest, None)
    _MEMO[digest] = arenas
    while len(_MEMO) > MEMO_ENTRIES:
        _MEMO.popitem(last=False)


class CompiledWorkload:
    """A workload whose streams replay packed arenas instead of generators.

    Satisfies the ``Workload`` duck type (``name``, ``num_cores``,
    ``core_stream``); :meth:`core_stream` decodes records lazily so any
    general-path consumer sees the exact source stream.  The engine's
    fast path bypasses decoding entirely via :meth:`packed`.

    Compiled streams are *finite* — exactly ``records_per_core`` long —
    unlike generator workloads; replaying past the end raises with the
    compiled length in the message.
    """

    def __init__(
        self,
        name: str,
        cores: Sequence[PackedCoreTrace],
        seed: int = 1234,
        description: str = "",
        paper_mpki: Optional[float] = None,
    ) -> None:
        if not cores:
            raise ValueError("need at least one compiled core trace")
        lengths = {core.records for core in cores}
        if len(lengths) != 1:
            raise ValueError(
                f"cores disagree on trace length: {sorted(lengths)}"
            )
        self.name = name
        self.seed = seed
        self.description = description
        self.paper_mpki = paper_mpki
        self._cores = list(cores)

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def records_per_core(self) -> int:
        return self._cores[0].records

    def packed(self, core_id: int) -> PackedCoreTrace:
        """One core's raw arena (the engine fast path's input)."""
        return self._cores[core_id]

    def core_stream(self, core_id: int) -> Iterator[TraceRecord]:
        """Decode one core's records (the general ``Workload`` contract)."""
        try:
            core = self._cores[core_id]
        except IndexError:
            raise ValueError(
                f"compiled workload {self.name!r} has no stream for core "
                f"{core_id}; cores available: {list(range(self.num_cores))}"
            ) from None
        yield from core.decode()
        raise RuntimeError(
            f"compiled trace for {self.name!r} core {core_id} exhausted "
            f"after {core.records} records; compile with a larger "
            f"records_per_core for longer runs"
        )


def compile_workload(
    workload: Workload,
    records_per_core: int,
    scale: Optional[float] = None,
    cache: Optional[TraceCache] = None,
) -> CompiledWorkload:
    """Compile a workload's generators into a :class:`CompiledWorkload`.

    ``records_per_core`` must cover the run's per-core instruction
    budget (the engine consumes exactly one record per retired
    instruction).  ``scale`` is the workload's footprint scale — part of
    the trace identity a ``Workload`` object does not carry.  When it is
    provided, the compiled arena is served from / stored to the on-disk
    ``cache`` (default: :class:`TraceCache` under ``$REPRO_CACHE_DIR``);
    when it is ``None`` the compile is in-memory only, because a cache
    entry that ignored scale could serve the wrong trace.
    """
    if records_per_core <= 0:
        raise ValueError(
            f"records_per_core must be positive, got {records_per_core}"
        )
    if isinstance(workload, CompiledWorkload):
        if workload.records_per_core < records_per_core:
            raise ValueError(
                f"workload {workload.name!r} is already compiled for "
                f"{workload.records_per_core} records/core; "
                f"{records_per_core} requested"
            )
        return workload

    digest = None
    key = None
    if scale is not None:
        key = trace_key(
            workload.name, workload.seed, scale,
            workload.num_cores, records_per_core,
        )
        digest = key_digest(key)
        cache = cache if cache is not None else TraceCache()
        arenas = _MEMO.get(digest)
        if arenas is None:
            arenas = cache.load(digest, key)
        if arenas is not None:
            _memoize(digest, arenas)
            _count("trace_compile_hits")
            logger.info(
                "compiled-trace cache hit: %s (%d cores × %d records)",
                workload.name, len(arenas), records_per_core,
            )
            return _wrap(workload, arenas)
        _count("trace_compile_misses")

    cores = [
        pack_records(workload.core_stream(core_id), records_per_core)
        for core_id in range(workload.num_cores)
    ]
    if digest is not None and key is not None:
        cache.store(digest, key, cores)
        # re-open through mmap so this process, too, shares the page
        # cache with workers instead of holding a private heap copy
        arenas = cache.load(digest, key)
        if arenas is not None:
            _memoize(digest, arenas)
            cores = arenas
        logger.info(
            "compiled %s: %d cores × %d records -> %s",
            workload.name, len(cores), records_per_core,
            cache.path_for(digest),
        )
    return _wrap(workload, cores)


def _wrap(
    workload: Workload, cores: Sequence[PackedCoreTrace]
) -> CompiledWorkload:
    return CompiledWorkload(
        name=workload.name,
        cores=cores,
        seed=getattr(workload, "seed", 1234),
        description=getattr(workload, "description", ""),
        paper_mpki=getattr(workload, "paper_mpki", None),
    )


# ---------------------------------------------------------------------------
# Text/.gz trace file bridge (repro.cpu.tracefile <-> compiled arenas)
# ---------------------------------------------------------------------------


def compile_trace_files(
    name: str,
    paths: Dict[int, Union[str, Path]],
    records_per_core: Optional[int] = None,
) -> CompiledWorkload:
    """Compile captured text/``.gz`` trace files into packed arenas.

    The counterpart of :func:`repro.cpu.tracefile.workload_from_traces`
    for the fast path: records parse through the same
    ``parse_record`` grammar, then pack.  With ``records_per_core``
    unset, every core is truncated to the shortest file so the arena
    stays rectangular; set it explicitly to require a minimum length.
    """
    from repro.cpu.tracefile import read_trace

    if not paths:
        raise ValueError("need at least one core trace")
    per_core = {
        core_id: list(read_trace(path)) for core_id, path in paths.items()
    }
    for core_id, records in per_core.items():
        if not records:
            raise ValueError(f"trace file {paths[core_id]} contains no records")
    limit = (
        records_per_core
        if records_per_core is not None
        else min(len(records) for records in per_core.values())
    )
    cores = []
    for core_id in sorted(per_core):
        records = per_core[core_id]
        if len(records) < limit:
            raise ValueError(
                f"trace file {paths[core_id]} holds {len(records)} records; "
                f"{limit} per core requested"
            )
        cores.append(pack_finite(records[:limit]))
    return CompiledWorkload(
        name=name,
        cores=cores,
        description=f"compiled from {len(cores)} trace file(s)",
    )


def write_compiled_trace(
    workload: CompiledWorkload,
    directory: Union[str, Path],
    compress: bool = True,
) -> Dict[int, Path]:
    """Decode a compiled workload back into per-core text trace files.

    The inverse bridge: the emitted files parse back (via
    :func:`repro.cpu.tracefile.read_trace` /
    :func:`compile_trace_files`) into the identical record streams.
    Returns ``{core_id: path}``.
    """
    from repro.cpu.tracefile import write_trace

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.gz" if compress else ".trace"
    paths: Dict[int, Path] = {}
    for core_id in range(workload.num_cores):
        path = directory / f"{workload.name}.core{core_id}{suffix}"
        write_trace(path, workload.packed(core_id).decode())
        paths[core_id] = path
    return paths
