"""Access-pattern primitives from which the workloads are composed.

Each primitive is an *infinite* generator of
:class:`repro.cpu.trace.TraceRecord`.  They model the canonical pattern
families of the paper's workload suite:

* fixed-layout record lookups (databases — recurring footprints),
* sequential and interleaved streams (scans, media streaming),
* strided sweeps and stencils (scientific/SPEC kernels),
* pointer chasing (symbolic execution, omnetpp, astar — dependent loads),
* indirect ``A[B[i]]`` gathers (sparse solvers),
* hot/cold mixes and temporal loops (cache-resident or temporally- but
  not spatially-correlated behaviour, e.g. Zeus).

Every primitive takes the PRNG it may draw from and a ``pc`` (or a
``pc_base`` for multi-site patterns): PCs identify *static access sites*,
which matters because half of the evaluated prefetchers key their history
on the PC.

Set-up draws that size with a pool rather than with the records a core
reads (a pointer-chase permutation, a replay sequence) go through
:func:`shuffle` and :func:`randbelow`, which draw exactly what
``random.Random`` would, only without a Python call per draw.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterator, List, Optional, Sequence

from repro.cpu.trace import TraceRecord

BLOCK = 64  # cache-block granularity used for address strides


def shuffle(rng: random.Random, items: List) -> List:
    """Shuffle ``items`` in place exactly as ``rng.shuffle(items)`` does.

    Runs CPython's own draw loop (``Random._randbelow_with_getrandbits``)
    inline: for each Fisher–Yates position ``i``, from the top, redraw
    ``getrandbits(k)`` until it is at most ``i``, where ``k`` is the bit
    length of ``i + 1``.  ``k`` is constant over a block of positions,
    so each block is one tight loop.  The permutation and the PRNG's end
    state equal ``rng.shuffle``'s (pinned by ``tests/workloads``).
    Returns ``items``.
    """
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = 1 << (bits - 1)  # the smallest i + 1 of this bit length
        for i in range(top, low - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        top = low - 2
    return items


def randbelow(rng: random.Random, n: int, count: int) -> List[int]:
    """``[rng.randrange(n) for _ in range(count)]``, drawn exactly alike.

    The same inline draw loop as :func:`shuffle`: values, order and the
    PRNG's end state equal ``randrange``'s.  ``n`` must be positive
    (``randrange(1)`` still draws, so ``n == 1`` consumes the PRNG too).
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow: n={n}")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    values = []
    append = values.append
    for _ in range(count):
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        append(value)
    return values


def compute_gap(pc: int, count: int) -> Iterator[TraceRecord]:
    """``count`` non-memory instructions (models computation between loads).

    Records are immutable, so one shared record stands for all of them.
    """
    return repeat(TraceRecord.compute(pc), count)


def sequential_stream(
    rng: random.Random,
    pc: int,
    base: int,
    size_bytes: int,
    gap: int = 2,
    stride_bytes: int = BLOCK,
) -> Iterator[TraceRecord]:
    """An endless sequential scan over ``[base, base+size)``, wrapping.

    The purest compulsory-miss generator: every block is touched once per
    sweep, in order.  With ``size_bytes`` far above LLC capacity nothing
    survives between sweeps, which is the scan-dominated behaviour
    Section II highlights as spatial prefetching's best case.
    """
    offset = 0
    while True:
        yield TraceRecord.load(pc, base + offset)
        yield from compute_gap(pc + 1, gap)
        offset = (offset + stride_bytes) % size_bytes


def strided_stream(
    rng: random.Random,
    pc: int,
    base: int,
    size_bytes: int,
    stride_bytes: int,
    gap: int = 2,
) -> Iterator[TraceRecord]:
    """A constant-stride sweep (milc/sphinx-like kernels)."""
    return sequential_stream(
        rng, pc, base, size_bytes, gap=gap, stride_bytes=stride_bytes
    )


def interleaved_streams(
    rng: random.Random,
    pc: int,
    base: int,
    num_streams: int,
    stream_size_bytes: int,
    burst_blocks: int = 4,
    gap: int = 2,
) -> Iterator[TraceRecord]:
    """Many concurrent sequential streams, served round-robin in bursts.

    Models a streaming server (Darwin): each "client" advances through its
    own file region; the interleaving constantly switches pages, which
    defeats single-stream delta prefetchers but leaves per-region
    footprints dense and recurrent.
    """
    cursors = [0] * num_streams
    stream = 0
    while True:
        stream_base = base + stream * stream_size_bytes
        for _ in range(burst_blocks):
            yield TraceRecord.load(pc, stream_base + cursors[stream])
            yield from compute_gap(pc + 1, gap)
            cursors[stream] = (cursors[stream] + BLOCK) % stream_size_bytes
        stream = (stream + 1) % num_streams


def stencil_sweep(
    rng: random.Random,
    pc_base: int,
    array_bases: Sequence[int],
    size_bytes: int,
    element_bytes: int = 8,
    gap: int = 1,
) -> Iterator[TraceRecord]:
    """A multi-array stencil (lbm/GemsFDTD/zeusmp-like).

    Per element, reads neighbours ``i−1, i, i+1`` from each array: several
    concurrent sequential streams with small intra-block reuse.
    """
    elements = size_bytes // element_bytes
    i = 1
    while True:
        for site, array_base in enumerate(array_bases):
            for neighbour in (-1, 0, 1):
                address = array_base + (i + neighbour) * element_bytes
                yield TraceRecord.load(pc_base + site * 4 + neighbour + 1, address)
            yield from compute_gap(pc_base + 64, gap)
        i += 1
        if i >= elements - 1:
            i = 1


def pointer_chase(
    rng: random.Random,
    pc: int,
    base: int,
    num_nodes: int,
    node_bytes: int = 64,
    gap: int = 4,
    extra_fields: int = 0,
    run_locality: float = 0.0,
) -> Iterator[TraceRecord]:
    """A linked-list traversal: serialised, (mostly) spatially uncorrelated.

    The next pointer usually comes from a random permutation of the node
    pool, so each hop lands on an unrelated page and *depends on the
    previous load* — the timing model serialises these misses, exactly
    the behaviour that makes pointer-heavy codes (SAT solver, omnetpp,
    astar) hard for any spatial prefetcher.

    ``run_locality`` is the probability that the next node is simply the
    adjacent one: real heaps allocate list nodes in bursts, so traversal
    order partially follows address order — the residual spatial
    structure that lets footprint prefetchers cover a minority of
    pointer-chase misses.  ``extra_fields`` adds independent same-node
    field loads (small intra-node locality).
    """
    if not 0 <= run_locality < 1:
        raise ValueError(f"run_locality must be in [0, 1), got {run_locality}")
    permutation = shuffle(rng, list(range(num_nodes)))
    node = rng.randrange(num_nodes)
    while True:
        address = base + node * node_bytes
        yield TraceRecord.load(pc, address, depends_on_prev_load=True)
        for f in range(extra_fields):
            yield TraceRecord.load(pc + 1 + f, address + (f + 1) * 8)
        yield from compute_gap(pc + 16, gap)
        if run_locality and rng.random() < run_locality:
            node = (node + 1) % num_nodes
        else:
            node = permutation[node]


def record_lookup(
    rng: random.Random,
    pc_base: int,
    base: int,
    num_records: int,
    record_bytes: int,
    layouts: Sequence[Sequence[int]],
    hot_fraction: float = 0.1,
    hot_probability: float = 0.5,
    gap: int = 3,
) -> Iterator[TraceRecord]:
    """Random lookups of fixed-layout records (Data Serving / YCSB-like).

    Records are ``record_bytes``-aligned objects; a lookup touches the
    field offsets of the record's *layout class* (``record index mod
    len(layouts)``).  Fixed layouts are precisely the "data objects with a
    regular and fixed layout" of the paper's abstract: every record of a
    class produces the same footprint, so footprints learned on one record
    generalise to never-seen records (compulsory-miss coverage), while
    *per-class differences* make the short ``PC+Offset`` event ambiguous —
    the ambiguity Bingo's long event resolves on revisits.

    A ``hot_fraction`` of records absorbs ``hot_probability`` of lookups,
    giving the reuse that lets long events recur at all.

    Field accesses *chain*: the header must arrive before the payload
    pointers it holds can be followed, so every field load after the
    first depends on the previous one.  This is the database reality that
    makes record lookups latency-bound for the baseline and is why
    fetching the whole footprint at the trigger pays off so much.
    """
    if not layouts:
        raise ValueError("need at least one layout class")
    hot_count = max(1, int(num_records * hot_fraction))
    while True:
        if rng.random() < hot_probability:
            record = rng.randrange(hot_count)
        else:
            record = rng.randrange(num_records)
        record_base = base + record * record_bytes
        layout = layouts[record % len(layouts)]
        for site, field_offset in enumerate(layout):
            yield TraceRecord.load(
                pc_base + site,
                record_base + field_offset,
                depends_on_prev_load=site > 0,
            )
            yield from compute_gap(pc_base + 32, gap)


def indirect_gather(
    rng: random.Random,
    pc_base: int,
    index_base: int,
    data_base: int,
    index_entries: int,
    data_bytes: int,
    gap: int = 2,
) -> Iterator[TraceRecord]:
    """``A[B[i]]`` gathers (soplex/sparse-algebra-like).

    The index array is read sequentially (spatially perfect); the data
    access it steers is random and depends on the index load.
    """
    i = 0
    while True:
        yield TraceRecord.load(pc_base, index_base + i * 4)
        target = rng.randrange(data_bytes // 8) * 8
        yield TraceRecord.load(pc_base + 1, data_base + target,
                               depends_on_prev_load=True)
        yield from compute_gap(pc_base + 8, gap)
        i = (i + 1) % index_entries


def hot_cold(
    rng: random.Random,
    pc: int,
    hot_base: int,
    hot_bytes: int,
    cold_base: int,
    cold_bytes: int,
    hot_probability: float = 0.95,
    gap: int = 3,
) -> Iterator[TraceRecord]:
    """Mostly cache-resident accesses with occasional cold misses.

    Models compute-bound codes (perlbench/gromacs/tonto-like) whose LLC
    behaviour is a small hot set plus a trickle of cold references.  Hot
    and cold structures are touched from distinct code sites (``pc`` and
    ``pc + 8``), as separate data structures are in real programs —
    sharing one PC would let a footprint predictor smear the dense hot
    patterns onto the one-off cold accesses.
    """
    while True:
        if rng.random() < hot_probability:
            address = hot_base + rng.randrange(hot_bytes // BLOCK) * BLOCK
            site = pc
        else:
            address = cold_base + rng.randrange(cold_bytes // BLOCK) * BLOCK
            site = pc + 8
        yield TraceRecord.load(site, address)
        yield from compute_gap(pc + 1, gap)


def temporal_loop(
    rng: random.Random,
    pc: int,
    base: int,
    footprint_bytes: int,
    sequence_length: int,
    gap: int = 3,
    dependent: bool = True,
) -> Iterator[TraceRecord]:
    """A fixed pseudo-random sequence replayed forever (Zeus-like).

    Accesses are *temporally* correlated (the same miss sequence repeats)
    but spatially unstructured; with ``dependent=True`` consecutive loads
    chain, so an OoO window cannot overlap them and only temporal
    prefetchers — not the spatial ones evaluated here — would help.
    Section VI-C uses exactly this to explain Zeus's 11 %.
    """
    blocks = footprint_bytes // BLOCK
    sequence = [
        block * BLOCK for block in randbelow(rng, blocks, sequence_length)
    ]
    position = 0
    while True:
        yield TraceRecord.load(
            pc, base + sequence[position], depends_on_prev_load=dependent
        )
        yield from compute_gap(pc + 1, gap)
        position = (position + 1) % sequence_length


def graph_sweep(
    rng: random.Random,
    pc_base: int,
    base: int,
    num_nodes: int,
    node_bytes: int = 64,
    span_nodes: int = 80,
    remote_fraction: float = 0.15,
    degree: int = 2,
    gap: int = 2,
    partner_base: Optional[int] = None,
) -> Iterator[TraceRecord]:
    """em3d-like bipartite graph traversal.

    em3d sweeps one side of a bipartite graph while reading neighbour
    values from the *other* side.  Here the swept side lives at ``base``
    and the partner side at ``partner_base``; each visit reads ``degree``
    partner nodes at forward-correlated positions within ``span_nodes``
    (Table II: 400 K nodes, degree 2, span 5 — span scaled to our node
    granularity) and, with probability ``remote_fraction``, anywhere in
    the partner array (15 % remote).

    The swept node list is pointer-linked (the Olden allocator happens to
    lay it out in address order), so the node walk is a *dependent*
    chain: the baseline core serialises one node miss after another —
    which is exactly why converting those misses into LLC hits buys the
    paper's 285 %.  The spatially-perfect stream is invisible to the OoO
    window but obvious to a footprint predictor.  Partner-edge loads are
    independent and overlap in the window.  Remote and local edges take
    different code paths (separate adjacency lists), hence distinct PCs.
    """
    if partner_base is None:
        partner_base = base + 2 * num_nodes * node_bytes
    node = 0
    while True:
        yield TraceRecord.load(
            pc_base, base + node * node_bytes, depends_on_prev_load=True
        )
        for edge in range(degree):
            if rng.random() < remote_fraction:
                neighbour = rng.randrange(num_nodes)
                edge_pc = pc_base + 16 + edge
            else:
                jitter = rng.randint(-span_nodes, span_nodes)
                neighbour = min(num_nodes - 1, max(0, node + jitter))
                edge_pc = pc_base + 1 + edge
            yield TraceRecord.load(edge_pc, partner_base + neighbour * node_bytes)
        yield from compute_gap(pc_base + 8, gap)
        node = (node + 1) % num_nodes


def mix(
    rng: random.Random,
    generators: List[Iterator[TraceRecord]],
    weights: Sequence[float],
    chunk: int = 24,
) -> Iterator[TraceRecord]:
    """Weighted interleave of generators, in chunks.

    Chunked switching (rather than per-record) keeps each primitive's
    internal structure — bursts, dependence chains — intact, modelling a
    program moving between phases/data structures, which is what causes
    the page-switch interleaving Section VI-B says defeats SHH methods.
    """
    if len(generators) != len(weights):
        raise ValueError("generators and weights must align")
    if not generators:
        raise ValueError("need at least one generator")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    while True:
        draw = rng.random()
        for index, bound in enumerate(cumulative):
            if draw <= bound:
                break
        gen = generators[index]
        for _ in range(chunk):
            yield next(gen)
