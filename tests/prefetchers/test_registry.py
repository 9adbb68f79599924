"""The prefetcher registry."""

import pytest

from repro.common.addresses import AddressMap
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import (
    available_prefetchers,
    check_prefetcher_kwargs,
    make_prefetcher,
    register,
)


EXPECTED = {
    "none", "nextline", "stride", "sandbox", "bop", "spp", "vldp",
    "ampm", "sms", "bingo", "multi-event",
}


def test_all_builtins_registered():
    assert EXPECTED <= set(available_prefetchers())


def test_construction_by_name():
    for name in EXPECTED:
        pf = make_prefetcher(name)
        assert isinstance(pf, Prefetcher)


def test_name_is_case_insensitive():
    assert make_prefetcher("BINGO").name == "bingo"


def test_kwargs_forwarded():
    pf = make_prefetcher("bop", degree=32)
    assert pf.degree == 32


def test_address_map_forwarded():
    amap = AddressMap(region_size=4096)
    pf = make_prefetcher("bingo", address_map=amap)
    assert pf.blocks_per_region == 64


def test_unknown_name_raises_with_choices():
    with pytest.raises(ValueError, match="unknown prefetcher"):
        make_prefetcher("does-not-exist")


def test_instances_are_independent():
    a = make_prefetcher("stride")
    b = make_prefetcher("stride")
    assert a is not b
    assert a._table is not b._table


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register("bingo", lambda **kwargs: None)


def test_sfp_is_the_conservative_single_event_design():
    """SFP (reference [17]): PC+Address only - accurate, no generalisation."""
    from repro.core.events import EventKind

    pf = make_prefetcher("sfp")
    assert pf.name == "sfp"
    assert pf.kinds == (EventKind.PC_ADDRESS,)


def test_new_baselines_registered():
    assert {"ghb", "markov", "sfp"} <= set(available_prefetchers())


@pytest.mark.parametrize("name", sorted(EXPECTED | {"ghb", "markov", "sfp"}))
def test_kwargs_check_accepts_what_the_factory_takes(name):
    """The keywords the check binds are the ones the factory builds
    with: each passes at its default value, and a keyword the factory
    would refuse is refused by the check too."""
    import inspect

    from repro.prefetchers.registry import _factory

    for key, param in inspect.signature(_factory(name)).parameters.items():
        if key == "address_map":
            continue
        check_prefetcher_kwargs(name, {key: param.default})
        make_prefetcher(name, **{key: param.default})
    with pytest.raises(TypeError):
        make_prefetcher(name, nope=1)
    with pytest.raises(ValueError, match="unexpected keyword argument 'nope'"):
        check_prefetcher_kwargs(name, {"nope": 1})


def test_sfp_kwargs_check_refuses_the_kinds_it_fixes():
    with pytest.raises(TypeError):
        make_prefetcher("sfp", kinds=())
    with pytest.raises(ValueError, match="'kinds'"):
        check_prefetcher_kwargs("sfp", {"kinds": ()})



@pytest.mark.parametrize(
    "name, kwargs, argument",
    [
        ("bingo", {"history_ways": 0}, "ways"),
        ("bingo", {"history_entries": 0}, "entries"),
        ("multi-event", {"ways": 0}, "ways"),
        ("multi-event", {"entries_per_table": 0}, "entries"),
        ("spp", {"filter_entries": 0}, "filter_entries"),
        ("sandbox", {"sandbox_capacity": 0}, "sandbox_capacity"),
    ],
)
def test_history_geometry_is_checked_before_it_divides(name, kwargs, argument):
    """A zero-way or zero-entry history table is refused with a
    ``ValueError`` naming the argument, not a ``ZeroDivisionError``; so
    is a zero-sized one-set LRU table (SPP's prefetch filter, the
    sandbox), not built as a set that forgets every block at once."""
    with pytest.raises(ValueError, match=f"^{argument} must be at least 1"):
        make_prefetcher(name, **kwargs)


def test_multi_event_takes_kinds_by_value():
    """A wire spec can only carry an event kind as its value."""
    from repro.core.events import EventKind

    by_value = make_prefetcher("multi-event", kinds=["pc+address", "pc"])
    assert by_value.kinds == (EventKind.PC_ADDRESS, EventKind.PC)
    by_member = make_prefetcher("multi-event", kinds=[EventKind.PC_OFFSET])
    assert by_member.kinds == (EventKind.PC_OFFSET,)
    with pytest.raises(ValueError, match="nope"):
        make_prefetcher("multi-event", kinds=["nope"])
