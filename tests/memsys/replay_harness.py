"""Standalone replay harness for the replacement zoo.

:func:`replay_trace` drives one policy of
:mod:`repro.memsys.replacement` through a plain set-associative,
demand-fill cache level, and :class:`SequenceOracle` gives ``opt`` the
exact next use of every block in the stream.  The conformance, property
and stress-workload suites use it; the simulator never does, so it
lives with them.  (No ``test_`` prefix: pytest does not collect it.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.memsys.replacement import NEVER, ReplacementError, make_replacement


class SequenceOracle:
    """Exact next-use oracle over a fully known block sequence.

    Used by :func:`replay_trace`, where the whole reference stream is in
    hand: occurrence positions are indexed up front, ``observe`` consumes
    them strictly in order, and ``next_use`` is the literal index of the
    block's next reference.  With this oracle Belady's MIN is *optimal*
    per set (each set sees an independent substream at full capacity
    ``ways``), which is exactly what the hypothesis dominance property
    asserts.
    """

    def __init__(self, blocks: Iterable[int]) -> None:
        occ: Dict[int, List[int]] = {}
        for position, block in enumerate(blocks):
            occ.setdefault(block, []).append(position)
        self._occ = occ
        self._cursor: Dict[int, int] = {}

    def observe(self, block: int) -> None:
        """Consume the block's current occurrence (called once per access)."""
        self._cursor[block] = self._cursor.get(block, 0) + 1

    def next_use(self, block: int) -> float:
        positions = self._occ.get(block)
        if positions is None:
            return NEVER
        cursor = self._cursor.get(block, 0)
        return positions[cursor] if cursor < len(positions) else NEVER


class ReplayStats:
    """Counters from one :func:`replay_trace` run."""

    __slots__ = ("accesses", "hits", "misses", "evictions", "victims")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: victim blocks in eviction order (conformance/differential use)
        self.victims: List[int] = []

    def __repr__(self) -> str:
        return (
            f"ReplayStats(accesses={self.accesses}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


def replay_trace(
    blocks: Iterable[int],
    num_sets: int,
    ways: int,
    policy: str = "lru",
) -> ReplayStats:
    """Replay a block reference stream through one demand-fill cache level.

    This is the policy zoo's proving ground: a plain set-associative
    cache with no timing, no prefetching, and no upper level — the
    setting where Belady's MIN theorem actually applies.  ``policy``
    names a registry entry; ``"opt"`` gets an exact
    :class:`SequenceOracle` built from the full stream, so its miss
    count lower-bounds every other policy's on the same stream and
    geometry (the hypothesis suite holds the zoo to exactly that).
    """
    blocks = list(blocks)
    oracle = SequenceOracle(blocks) if policy.lower() == "opt" else None
    engine = make_replacement(policy, num_sets, ways, oracle=oracle)
    mask = num_sets - 1
    if num_sets & mask:
        raise ValueError(f"num_sets must be a power of two, got {num_sets}")
    resident: List[set] = [set() for _ in range(num_sets)]
    stats = ReplayStats()
    for block in blocks:
        set_index = block & mask
        if oracle is not None:
            oracle.observe(block)
        stats.accesses += 1
        entries = resident[set_index]
        if block in entries:
            stats.hits += 1
            engine.touch(set_index, block)
            continue
        stats.misses += 1
        if len(entries) >= ways:
            victim = engine.victim(set_index, block)
            if victim not in entries:
                raise ReplacementError(
                    f"{engine.name}: victim {victim:#x} is not resident "
                    f"in set {set_index}"
                )
            entries.remove(victim)
            engine.remove(set_index, victim)
            stats.evictions += 1
            stats.victims.append(victim)
        entries.add(block)
        engine.insert(set_index, block)
    return stats
