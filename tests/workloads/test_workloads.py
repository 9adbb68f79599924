"""The Table II workload suite: registry, determinism, scaling."""

import itertools

import pytest

from repro.workloads.base import Workload, heterogeneous, homogeneous
from repro.workloads.mixes import MIX_COMPOSITIONS, make_mix
from repro.workloads.registry import (
    STRESS_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    available_workloads,
    make_workload,
)
from repro.workloads.spec import SPEC_KERNELS


def take_addresses(workload, core, n):
    stream = workload.core_stream(core)
    return [
        r.address for r in itertools.islice(stream, n * 8) if r.is_mem
    ][:n]


class TestRegistry:
    def test_table2_rows_present(self):
        assert set(WORKLOAD_NAMES) == {
            "data_serving", "sat_solver", "streaming", "zeus", "em3d",
            "mix1", "mix2", "mix3", "mix4", "mix5",
        }
        # Table II stays the experiments' matrix; the stress suite rides
        # behind it so `bingo-sim list` and make_workload see everything.
        assert available_workloads() == (
            list(WORKLOAD_NAMES) + list(STRESS_WORKLOAD_NAMES)
        )
        assert set(STRESS_WORKLOAD_NAMES) == {"zipf", "oscillate"}

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_every_workload_builds_and_streams(self, name):
        workload = make_workload(name, scale=0.05)
        assert workload.num_cores == 4
        for core in range(4):
            records = list(itertools.islice(workload.core_stream(core), 50))
            assert len(records) == 50
            assert any(r.is_mem for r in records)

    def test_paper_mpki_recorded(self):
        assert make_workload("em3d").paper_mpki == 32.4
        assert make_workload("data_serving").paper_mpki == 6.7

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("nope")

    def test_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            make_workload("em3d", scale=0.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_workload("data_serving", seed=7, scale=0.05)
        b = make_workload("data_serving", seed=7, scale=0.05)
        assert take_addresses(a, 0, 50) == take_addresses(b, 0, 50)

    def test_different_seed_differs(self):
        a = make_workload("data_serving", seed=7, scale=0.05)
        b = make_workload("data_serving", seed=8, scale=0.05)
        assert take_addresses(a, 0, 50) != take_addresses(b, 0, 50)

    def test_cores_are_decorrelated(self):
        workload = make_workload("data_serving", seed=7, scale=0.05)
        assert take_addresses(workload, 0, 50) != take_addresses(workload, 1, 50)


class TestScaling:
    def test_scale_shrinks_footprint(self):
        big = make_workload("em3d", scale=1.0)
        small = make_workload("em3d", scale=0.1)
        assert max(take_addresses(big, 0, 2000)) > max(
            take_addresses(small, 0, 2000)
        )


class TestMixes:
    def test_compositions_match_table2(self):
        assert MIX_COMPOSITIONS["mix1"] == ("lbm", "omnetpp", "soplex", "sphinx3")
        assert MIX_COMPOSITIONS["mix2"] == (
            "lbm", "libquantum", "sphinx3", "zeusmp"
        )

    def test_mix_binds_one_kernel_per_core(self):
        mix = make_mix("mix1", scale=0.05)
        assert mix.num_cores == 4

    def test_unknown_mix(self):
        with pytest.raises(ValueError, match="unknown mix"):
            make_mix("mix9")

    @pytest.mark.parametrize("kernel", sorted(SPEC_KERNELS))
    def test_every_kernel_streams(self, kernel):
        import random

        stream = SPEC_KERNELS[kernel](0.05)(random.Random(0), 0)
        records = list(itertools.islice(stream, 100))
        assert any(r.is_mem for r in records)


class TestWorkloadClass:
    def test_missing_core_raises(self):
        workload = homogeneous("w", lambda rng, core: iter([]), num_cores=2)
        with pytest.raises(ValueError, match="no stream for core"):
            workload.core_stream(5)

    def test_with_seed_copies(self):
        workload = make_workload("zeus", scale=0.05)
        other = workload.with_seed(99)
        assert other.seed == 99
        assert other.name == workload.name
        assert workload.seed != 99

    def test_heterogeneous_ordering(self):
        factories = [lambda rng, core: iter([]) for _ in range(3)]
        workload = heterogeneous("h", factories)
        assert workload.num_cores == 3
