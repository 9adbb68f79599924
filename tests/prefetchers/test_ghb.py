"""GHB G/DC delta correlation."""

import pytest

from repro.prefetchers.ghb import GhbPrefetcher

from tests.prefetchers.helpers import feed


def test_learns_repeating_delta_pattern():
    """The delta sequence (1, 3) repeating: after seeing (…,1,3,1,3) the
    current (3,1) window matches history and replays the following 3."""
    pf = GhbPrefetcher(match_length=2, degree=2)
    stream = [0]
    for _ in range(6):
        stream.append(stream[-1] + 1)
        stream.append(stream[-1] + 3)
    prefetched = feed(pf, stream)
    assert prefetched  # correlation found
    assert stream[-1] + 1 in prefetched


def test_constant_stride_is_trivially_correlated():
    pf = GhbPrefetcher(match_length=2, degree=2)
    prefetched = feed(pf, [0, 7, 14, 21, 28, 35])
    assert 42 in prefetched


def test_chains_are_pc_localised():
    pf = GhbPrefetcher(match_length=2, degree=2)
    feed(pf, [0, 7, 14, 21, 28], pc=0x100)
    # A different PC has no chain: no predictions.
    assert feed(pf, [1000], pc=0x200) == []


def test_random_traffic_predicts_nothing():
    import random

    rng = random.Random(3)
    pf = GhbPrefetcher()
    prefetched = feed(pf, [rng.randrange(10**9) for _ in range(300)])
    assert len(prefetched) < 10


def test_fifo_bounds_history():
    pf = GhbPrefetcher(buffer_entries=8)
    feed(pf, list(range(100)))
    assert len(pf._blocks) == 8


@pytest.mark.parametrize("kwargs", [
    {"buffer_entries": 0}, {"match_length": 0}, {"degree": 0},
])
def test_validation(kwargs):
    with pytest.raises(ValueError):
        GhbPrefetcher(**kwargs)


def test_storage_positive():
    assert GhbPrefetcher().storage_bits > 0
