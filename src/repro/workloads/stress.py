"""Stress workloads: Zipf skew, phase changes, and oscillating patterns.

Table II evaluates Bingo where the paper says it shines; these
generators probe where policies *disagree*.  They exist for the
replacement-policy zoo (``--replacement``, docs/replacement.md) and for
ranking prefetchers outside the paper's matrix:

* ``zipf`` — hot/cold skew on a power-law: a popularity-ranked block
  population where rank ``r`` is drawn with probability ``∝ r^-alpha``.
  The classic web/KV-store distribution; frequency-aware policies (LFU,
  ARC's T2) hold the head while recency-only policies churn it.
* ``phase_shift`` — the working set *relocates* to a fresh arena every
  phase.  Frequency state earned in one phase is pure dead weight in
  the next, which is exactly the pathology LFU-without-aging exhibits
  and adaptive policies (ARC) are built to escape.
* ``oscillate`` — a square wave between a reusable hot set and a big
  one-touch scan.  The scan floods an LRU stack and evicts the hot set
  every period; scan-resistant policies (2Q, ARC) hold it.

Like every other workload, streams are infinite, deterministic in
``(seed, core_id)``, and structure-preserving under ``scale`` (sizes
scale, shapes don't).  Phase boundaries are positional — a fixed count
of *memory* references per phase, independent of any random draw — so
two runs with different seeds flip phases at identical stream offsets
(the phase-determinism test in ``tests/workloads`` pins this).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, List, Sequence

from repro.cpu.trace import TraceRecord
from repro.workloads import primitives as prim
from repro.workloads.base import Workload, homogeneous

MB = 1024 * 1024
BLOCK = prim.BLOCK

# Disjoint virtual arenas, mirroring the layout convention in server.py.
_HEAP = 0x1000_0000
_ARENA2 = 0x4000_0000
_PHASE_STRIDE = 0x0800_0000  # 128 MB of virtual space per phase arena


def zipf_weights(population: int, alpha: float) -> List[float]:
    """Cumulative Zipf(alpha) weights for ranks ``1..population``.

    Plain cumulative sums for :func:`bisect.bisect_left` draws — no
    numpy, deterministic, and built once per stream (the population is
    the block count of the footprint, ~10^4 at experiment scales).
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    # summed left to right from rank 1: the pinned stream digests
    # (tests/workloads/test_stream_digests.py) hold these exact floats
    return list(accumulate(rank ** -alpha for rank in range(1, population + 1)))


def zipf_stream(
    rng: random.Random,
    pc: int,
    base: int,
    footprint_bytes: int,
    alpha: float = 1.1,
    gap: int = 3,
) -> Iterator[TraceRecord]:
    """Block accesses with Zipf(alpha)-distributed popularity.

    Rank 1 is the hottest block; the rank→address assignment is a
    seeded shuffle so the popular blocks scatter across pages rather
    than clustering at ``base`` (a popularity-sorted layout would gift
    spatial prefetchers structure that real heaps don't have).
    """
    population = max(1, footprint_bytes // BLOCK)
    cumulative = zipf_weights(population, alpha)
    total = cumulative[-1]
    placement = prim.shuffle(rng, list(range(population)))
    while True:
        rank = bisect_left(cumulative, rng.random() * total)
        yield TraceRecord.load(pc, base + placement[rank] * BLOCK)
        yield from prim.compute_gap(pc + 1, gap)


def phase_stream(
    rng: random.Random,
    phases: Sequence,
    phase_refs: int,
) -> Iterator[TraceRecord]:
    """Cycle through ``phases``, each for exactly ``phase_refs`` memory refs.

    ``phases`` holds zero-argument generator *factories* (so each visit
    restarts the pattern — a program re-entering a phase re-enters its
    loop, it does not resume mid-iteration).  Boundaries count memory
    references, not raw records, so the compute-gap padding of the
    inner patterns cannot drift them; and they count *positionally*, so
    the flip offsets are seed-independent.
    """
    if phase_refs <= 0:
        raise ValueError(f"phase_refs must be positive, got {phase_refs}")
    if not phases:
        raise ValueError("need at least one phase")
    while True:
        for factory in phases:
            pattern = factory()
            seen = 0
            while seen < phase_refs:
                record = next(pattern)
                yield record
                if record.is_mem:
                    seen += 1


def oscillating_stream(
    rng: random.Random,
    pc: int,
    hot_base: int,
    hot_bytes: int,
    scan_base: int,
    scan_bytes: int,
    period_refs: int = 2048,
    gap: int = 2,
) -> Iterator[TraceRecord]:
    """Square wave: reuse a hot set, then scan a big cold region, repeat.

    The hot half re-references a small uniform set (pure reuse); the
    scan half walks sequentially through a region far bigger than the
    hot set (pure one-touch pollution).  Under LRU every scan pass
    flushes the hot set — the canonical argument for 2Q/ARC.  The scan
    *resumes* where it left off across periods (one long circular file,
    as a backup or log reader would), while the hot set is the same
    blocks every period.
    """

    if period_refs <= 0:
        raise ValueError(f"period_refs must be positive, got {period_refs}")

    def hot() -> Iterator[TraceRecord]:
        blocks = max(1, hot_bytes // BLOCK)
        while True:
            yield TraceRecord.load(pc, hot_base + rng.randrange(blocks) * BLOCK)
            yield from prim.compute_gap(pc + 1, gap)

    def drain(pattern: Iterator[TraceRecord]) -> Iterator[TraceRecord]:
        # one half-period: exactly period_refs *memory* references
        # (compute-gap padding rides along without advancing the count)
        seen = 0
        while seen < period_refs:
            record = next(pattern)
            yield record
            if record.is_mem:
                seen += 1

    hot_gen = hot()
    scan = prim.sequential_stream(rng, pc + 8, scan_base, scan_bytes, gap=gap)
    while True:
        yield from drain(hot_gen)
        yield from drain(scan)


# ---------------------------------------------------------------------------
# Registered workload factories
# ---------------------------------------------------------------------------


def _scaled(byte_count: float, scale: float, minimum: int = 64 * 1024) -> int:
    return max(minimum, int(byte_count * scale))


def zipf(scale: float = 1.0) -> Workload:
    """Zipf(1.1)-skewed key-value lookups over a large block population."""
    footprint = _scaled(16 * MB, scale, minimum=256 * 1024)

    def stream(rng: random.Random, core_id: int) -> Iterator[TraceRecord]:
        return zipf_stream(
            rng, pc=0x410000, base=_HEAP, footprint_bytes=footprint,
            alpha=1.1, gap=3,
        )

    return homogeneous(
        "zipf",
        stream,
        description="Zipf(1.1) hot/cold skew over a KV-store block pool",
    )


def phase_shift(scale: float = 1.0) -> Workload:
    """Four phases, each relocating the working set to a fresh arena.

    Each phase is a Zipf-skewed region in its own arena with its own
    access site, so history (cache contents, LFU counts, prefetcher
    footprints) earned in one phase is worthless in the next.  The
    phase length is scale-independent *in references* so the boundary
    offsets stay put as footprints scale.
    """
    footprint = _scaled(2 * MB, scale, minimum=128 * 1024)
    phase_refs = 4096

    def stream(rng: random.Random, core_id: int) -> Iterator[TraceRecord]:
        phases = [
            # bind per-phase arena/pc via defaults; each phase restarts
            # its pattern with a phase-specific child PRNG so re-entry
            # is deterministic regardless of how much the *other*
            # phases consumed from their generators
            lambda p=p: zipf_stream(
                random.Random(rng.randrange(1 << 30) ^ p),
                pc=0x420000 + p * 0x100,
                base=_HEAP + p * _PHASE_STRIDE,
                footprint_bytes=footprint,
                alpha=1.2,
                gap=3,
            )
            for p in range(4)
        ]
        return phase_stream(rng, phases, phase_refs)

    return homogeneous(
        "phase_shift",
        stream,
        description="working set relocates to a fresh arena every phase",
    )


def oscillate(scale: float = 1.0) -> Workload:
    """Hot-set reuse alternating with a polluting sequential scan."""
    hot_bytes = _scaled(256 * 1024, scale, minimum=32 * 1024)
    scan_bytes = _scaled(32 * MB, scale, minimum=1 * MB)

    def stream(rng: random.Random, core_id: int) -> Iterator[TraceRecord]:
        return oscillating_stream(
            rng,
            pc=0x430000,
            hot_base=_HEAP,
            hot_bytes=hot_bytes,
            scan_base=_ARENA2,
            scan_bytes=scan_bytes,
            period_refs=2048,
            gap=2,
        )

    return homogeneous(
        "oscillate",
        stream,
        description="hot-set reuse square-waved with a one-touch scan",
    )
