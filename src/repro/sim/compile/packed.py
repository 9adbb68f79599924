"""Packed trace encoding: one workload stream as three flat arrays.

A compiled core trace is three parallel, index-aligned sections —
``pcs`` (u64), ``addresses`` (u64), and ``flags`` (u8) — instead of a
Python generator of :class:`~repro.cpu.trace.TraceRecord` objects.  The
encoding is total: every field of a ``TraceRecord`` maps to exactly one
slot, so decoding reproduces the source record stream bit-for-bit (the
round-trip property the test suite enforces for every registered
workload).

The flag byte packs the three booleans::

    bit 0  is_mem
    bit 1  is_write
    bit 2  depends_on_prev_load

A compute instruction is flag ``0``, so the replay loop's "is this a
memory access?" test is a single truthiness check on one byte.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Iterator, Sequence, Tuple

from repro.cpu.trace import TraceRecord

#: encoding version; folded into every compiled-trace cache key so a
#: layout change can never decode a stale arena
PACK_FORMAT = 1

FLAG_MEM = 0x1
FLAG_WRITE = 0x2
FLAG_DEP = 0x4


class PackedCoreTrace:
    """One core's compiled stream: three index-aligned flat sequences.

    ``pcs``/``addresses`` index as unsigned 64-bit ints, ``flags`` as
    small ints — either ``array``/``bytes`` (freshly compiled) or
    ``memoryview`` casts over a read-only ``mmap`` (loaded from the
    on-disk trace cache); the replay loops only ever index, so the two
    backings are interchangeable.
    """

    __slots__ = ("pcs", "addresses", "flags", "records")

    def __init__(self, pcs, addresses, flags, records: int) -> None:
        self.pcs = pcs
        self.addresses = addresses
        self.flags = flags
        self.records = records

    def decode(self) -> Iterator[TraceRecord]:
        """Replay the packed words as the original record stream."""
        pcs, addresses, flags = self.pcs, self.addresses, self.flags
        for index in range(self.records):
            bits = flags[index]
            yield TraceRecord(
                pcs[index],
                addresses[index],
                bool(bits & FLAG_MEM),
                bool(bits & FLAG_WRITE),
                bool(bits & FLAG_DEP),
            )


def pack_records(
    records: Iterable[TraceRecord], count: int
) -> PackedCoreTrace:
    """Drain ``count`` records from a stream into a packed arena.

    Raises ``ValueError`` if a pc/address does not fit in an unsigned
    64-bit word (the on-disk format's word size), naming the record, or
    if the stream ends early (compiled traces are exact-length by
    construction).
    """
    pcs = array("Q")
    addresses = array("Q")
    flags = bytearray()
    append_pc = pcs.append
    append_address = addresses.append
    append_flags = flags.append
    for pc, address, is_mem, is_write, dependent in islice(records, count):
        try:
            append_pc(pc)
            append_address(address)
        except OverflowError:
            raise ValueError(
                f"record {len(flags)}: pc={pc:#x} address={address:#x} does "
                f"not fit the packed 64-bit trace words"
            ) from None
        if is_mem:
            append_flags(
                FLAG_MEM
                | (FLAG_WRITE if is_write else 0)
                | (FLAG_DEP if dependent else 0)
            )
        else:
            append_flags(0)
    if len(flags) < count:
        raise ValueError(
            f"stream ended after {len(flags)} records; {count} requested"
        )
    return PackedCoreTrace(pcs, addresses, bytes(flags), count)


def arena_bytes(cores: Sequence[PackedCoreTrace]) -> Tuple[bytes, ...]:
    """The raw sections of each core, for serialisation.

    Grouped per kind — ``(pcs..., addresses..., flags...)`` — so the
    8-byte word sections stay aligned when concatenated and the 1-byte
    flag sections all sit at the tail.  Words are native-endian (the
    cache header records the byte order; a mismatch reads as a miss).
    """

    def words(section) -> bytes:
        data = section if isinstance(section, array) else array("Q", section)
        return data.tobytes()

    return tuple(
        [words(core.pcs) for core in cores]
        + [words(core.addresses) for core in cores]
        + [bytes(core.flags) for core in cores]
    )
