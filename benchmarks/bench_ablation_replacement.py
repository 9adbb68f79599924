"""Ablation: Bingo's lead over SMS and SPP under every LLC replacement policy.

Section V trains Bingo at the LLC, and an LLC eviction ends each
residency, so the replacement policy decides what every footprint
holds.  This bench reruns Bingo, SMS and SPP over the ablation workloads
under each registered policy and asserts that Bingo's Fig. 8 lead is not
an artefact of LRU.

The full-length run carries the claim.  At ``REPRO_QUICK=1`` the lead
holds too, but the shorter runs evict little from the 1 MB LLC and the
policies' rows differ by a few thousandths at most.
"""

from repro.experiments import ablations


def test_ablation_replacement_policy(benchmark):
    rows = benchmark.pedantic(
        ablations.run_replacement_policy, rounds=1, iterations=1
    )
    text = ablations.format_replacement_policy(rows)
    print("\n" + text)
    benchmark.extra_info["table"] = text
    for row in rows:
        assert row["bingo"] > row["sms"], row
        assert row["bingo"] > row["spp"], row
    # an LLC that never evicted would give every policy the same row
    speedups = {(row["bingo"], row["sms"], row["spp"]) for row in rows}
    assert len(speedups) >= 2
