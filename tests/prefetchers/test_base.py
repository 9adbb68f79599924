"""The prefetcher base interface."""

import pytest

from repro.common.config import small_system
from repro.prefetchers.base import AccessInfo, NullPrefetcher, Prefetcher
from repro.sim.compile import compile_workload
from repro.sim.engine import SimulationEngine, SimulationParams
from repro.workloads.registry import make_workload


def test_access_info_is_frozen():
    info = AccessInfo(pc=1, block=1)
    with pytest.raises(AttributeError):
        info.pc = 2  # type: ignore[misc]


def test_null_prefetcher_never_prefetches():
    pf = NullPrefetcher()
    info = AccessInfo(pc=1, block=1)
    assert pf.on_access(info) == []
    assert pf.storage_bits == 0


def test_base_on_access_is_abstract():
    pf = Prefetcher()
    info = AccessInfo(pc=1, block=1)
    with pytest.raises(NotImplementedError):
        pf.on_access(info)


def test_default_address_map_is_paper_geometry():
    pf = NullPrefetcher()
    assert pf.address_map.region_size == 2048


class _PlainNextLine:
    """A next-line prefetcher that is not a :class:`Prefetcher`: it has
    only the attributes the hierarchy and the engine use."""

    name = "plain"
    storage_bits = 0

    def on_access(self, info):
        return [info.block + 1]

    def on_eviction(self, block, was_used):
        pass


@pytest.mark.parametrize(
    "train_at, vectorized", [("llc", False), ("llc", True), ("l1", False)]
)
def test_simulator_needs_only_the_contract_hooks(train_at, vectorized):
    """The whole prefetcher contract is on_access, on_eviction and
    storage_bits: a run over plain objects completes and prefetches, on
    either engine loop."""
    workload = compile_workload(
        make_workload("streaming", seed=7, scale=0.02), records_per_core=3000
    )
    result = SimulationEngine(
        workload=workload,
        prefetchers=[_PlainNextLine() for _ in range(4)],
        system=small_system(num_cores=4),
        params=SimulationParams(
            instructions_per_core=3000, warmup_instructions=500
        ),
        train_at=train_at,
        vectorized=vectorized,
    ).run()
    assert result.prefetches_issued > 0
    assert result.prefetcher_storage_bits == 0
