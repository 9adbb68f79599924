"""Sandbox prefetcher: candidate evaluation and qualification."""

from repro.prefetchers.sandbox import SandboxPrefetcher

from tests.prefetchers.helpers import feed


class TestQualification:
    def test_sequential_stream_qualifies_plus_one(self):
        pf = SandboxPrefetcher(
            candidates=(1,), evaluation_period=64, score_threshold=16
        )
        feed(pf, list(range(100)))
        assert 1 in pf._qualified_offsets()

    def test_qualified_offset_issues_real_prefetches(self):
        pf = SandboxPrefetcher(
            candidates=(1,), evaluation_period=64, score_threshold=16
        )
        feed(pf, list(range(100)))
        prefetched = feed(pf, [1000])
        assert 1001 in prefetched

    def test_random_candidates_do_not_qualify(self):
        import random

        rng = random.Random(2)
        pf = SandboxPrefetcher(evaluation_period=32, score_threshold=8)
        feed(pf, [rng.randrange(10**9) for _ in range(300)])
        assert pf._qualified_offsets() == []

    def test_candidates_rotate(self):
        pf = SandboxPrefetcher(candidates=(1, 2), evaluation_period=4)
        feed(pf, list(range(4)))
        assert pf._current == 1  # moved to the second candidate

    def test_rejects_empty_candidates(self):
        import pytest

        with pytest.raises(ValueError):
            SandboxPrefetcher(candidates=())
