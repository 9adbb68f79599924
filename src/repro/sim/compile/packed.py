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

_U64_MAX = (1 << 64) - 1


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
                pc=pcs[index],
                address=addresses[index],
                is_mem=bool(bits & FLAG_MEM),
                is_write=bool(bits & FLAG_WRITE),
                depends_on_prev_load=bool(bits & FLAG_DEP),
            )


def pack_records(
    records: Iterable[TraceRecord], count: int
) -> PackedCoreTrace:
    """Drain ``count`` records from a stream into a packed arena.

    Raises ``ValueError`` if the stream ends early (compiled traces are
    exact-length by construction) or if a pc/address does not fit in an
    unsigned 64-bit word (the on-disk format's word size).
    """
    pcs = array("Q")
    addresses = array("Q")
    flags = bytearray()
    seen = 0
    for record in islice(records, count):
        pc = record.pc
        address = record.address
        if not (0 <= pc <= _U64_MAX and 0 <= address <= _U64_MAX):
            raise ValueError(
                f"record {seen}: pc={pc:#x} address={address:#x} does not "
                f"fit the packed 64-bit trace words"
            )
        bits = 0
        if record.is_mem:
            bits = FLAG_MEM
            if record.is_write:
                bits |= FLAG_WRITE
            if record.depends_on_prev_load:
                bits |= FLAG_DEP
        pcs.append(pc)
        addresses.append(address)
        flags.append(bits)
        seen += 1
    if seen < count:
        raise ValueError(
            f"stream ended after {seen} records; {count} requested"
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
