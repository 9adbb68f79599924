"""Next-line prefetcher."""

import pytest

from repro.prefetchers.nextline import NextLinePrefetcher

from tests.prefetchers.helpers import feed_one


def test_prefetches_next_block():
    pf = NextLinePrefetcher()
    assert feed_one(pf, 100) == [101]


def test_degree_extends_run():
    pf = NextLinePrefetcher(degree=3)
    assert feed_one(pf, 100) == [101, 102, 103]


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        NextLinePrefetcher(degree=0)


def test_stateless_storage():
    assert NextLinePrefetcher().storage_bits == 0
