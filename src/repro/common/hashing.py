"""Deterministic integer hashing for table indexing.

Hardware tables index with simple XOR-folding of address/PC bits.  Python's
built-in ``hash`` of an int is the int itself, which produces badly skewed
set distributions for strided addresses, so all table indexing in the
simulator goes through the mixers below.  They are deterministic across
runs and processes (no ``PYTHONHASHSEED`` dependence), which keeps every
experiment reproducible.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_COMBINE_INIT = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a strong, cheap 64-bit mixer."""
    value &= _MASK64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def combine(*values: int) -> int:
    """Hash-combine several ints into one 64-bit value, order-sensitive."""
    return combine_from(_COMBINE_INIT, *values)


def combine_from(digest: int, *values: int) -> int:
    """Continue :func:`combine` from the digest of a prefix.

    ``combine`` is a left fold, so ``combine(*a, *b) ==
    combine_from(combine(*a), *b)``: a constant prefix (an event kind's
    tag) is hashed once, not on every call.
    """
    for value in values:
        digest = mix64(digest ^ mix64(value))
    return digest


def fold(value: int, bits: int) -> int:
    """XOR-fold a hashed value down to ``bits`` bits (table index width).

    The result is the XOR of the 64-bit hash's ``bits``-wide chunks.
    XOR is associative, so instead of walking the chunks one by one the
    value is halved at chunk-aligned widths (``bits`` times a power of
    two): at most 6 steps, against ``ceil(64 / bits)``.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    value = mix64(value)
    width = bits << (-(-64 // bits) - 1).bit_length()
    while width > bits:
        width >>= 1
        value = (value >> width) ^ (value & ((1 << width) - 1))
    return value
