"""Name-based prefetcher construction.

The experiment drivers, the CLI, and the benches all build prefetchers by
name, with per-run keyword overrides (e.g. ``degree=32`` for the Fig. 10
iso-degree variants).  Bingo lives in :mod:`repro.core` but registers here
so a single namespace covers the whole zoo.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, List, Mapping, Optional

from repro.common.addresses import AddressMap
from repro.prefetchers.base import NullPrefetcher, Prefetcher

PrefetcherFactory = Callable[..., Prefetcher]

_REGISTRY: Dict[str, PrefetcherFactory] = {}


def register(name: str, factory: PrefetcherFactory) -> None:
    """Register a prefetcher factory under ``name`` (lowercase).

    The built-in zoo registers first, so a plugin adds to it rather than
    taking its place.
    """
    _ensure_builtins()
    key = name.lower()
    if key in _REGISTRY:
        raise ValueError(f"prefetcher {name!r} already registered")
    _REGISTRY[key] = factory


def available_prefetchers() -> List[str]:
    """Sorted names of all registered prefetchers."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def make_prefetcher(
    name: str, address_map: Optional[AddressMap] = None, **kwargs
) -> Prefetcher:
    """Instantiate a registered prefetcher by name.

    ``kwargs`` are forwarded to the factory, so experiment code can say
    ``make_prefetcher("bop", degree=32)`` for the aggressive variants.
    """
    return _factory(name)(address_map=address_map, **kwargs)


def check_prefetcher_kwargs(name: str, kwargs: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless :func:`make_prefetcher` takes ``kwargs``.

    Nothing is built: the keywords are bound to the factory's signature,
    so a table size in ``kwargs`` allocates nothing here.  Whether a
    value is one the constructor accepts is left to the run that builds
    it.
    """
    signature = _signature(_factory(name))
    try:
        signature.bind(address_map=None, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad prefetcher_kwargs for {name!r}: {exc}") from None


def _factory(name: str) -> PrefetcherFactory:
    _ensure_builtins()
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown prefetcher {name!r}; available: {available_prefetchers()}"
        ) from None


@functools.lru_cache(maxsize=None)
def _signature(factory: PrefetcherFactory) -> inspect.Signature:
    # reading a class's signature costs ~40 us; the service checks one
    # per submitted job
    return inspect.signature(factory)


def _ensure_builtins() -> None:
    """Register the built-in zoo on first use.

    Registration is deferred (not done at import time) because
    ``repro.core`` imports the :class:`Prefetcher` base from this package
    — eager registration would be a circular import.  First use can come
    from several threads at once (the service's request handlers): the
    zoo enters the registry in one ``dict.update``, so no caller sees it
    half-registered, and threads that race to build it add the same
    entries.
    """
    if not _REGISTRY:
        _REGISTRY.update(_builtins())


def _builtins() -> Dict[str, PrefetcherFactory]:
    from repro.core.bingo import BingoPrefetcher
    from repro.core.events import EventKind
    from repro.core.multi_event import MultiEventSpatialPrefetcher
    from repro.prefetchers.ampm import AmpmPrefetcher
    from repro.prefetchers.bop import BestOffsetPrefetcher
    from repro.prefetchers.ghb import GhbPrefetcher
    from repro.prefetchers.markov import MarkovPrefetcher
    from repro.prefetchers.nextline import NextLinePrefetcher
    from repro.prefetchers.sandbox import SandboxPrefetcher
    from repro.prefetchers.sms import SmsPrefetcher
    from repro.prefetchers.spp import SppPrefetcher
    from repro.prefetchers.stride import StridePrefetcher
    from repro.prefetchers.vldp import VldpPrefetcher

    def sfp_factory(address_map=None, **kwargs):
        # SFP (Kumar & Wilkerson, ISCA 1998 - the paper's reference
        # [17]): per-region footprints keyed by the single long
        # PC+Address event; the conservative extreme of Section III.
        pf = MultiEventSpatialPrefetcher(
            address_map=address_map, kinds=(EventKind.PC_ADDRESS,), **kwargs
        )
        pf.name = "sfp"
        return pf

    # what check_prefetcher_kwargs binds against: the multi-event
    # keywords, less the event kinds SFP fixes
    multi_event = inspect.signature(MultiEventSpatialPrefetcher)
    sfp_factory.__signature__ = multi_event.replace(
        parameters=[
            p for p in multi_event.parameters.values() if p.name != "kinds"
        ]
    )

    return {
        "none": NullPrefetcher,
        "nextline": NextLinePrefetcher,
        "stride": StridePrefetcher,
        "ghb": GhbPrefetcher,
        "markov": MarkovPrefetcher,
        "sandbox": SandboxPrefetcher,
        "bop": BestOffsetPrefetcher,
        "spp": SppPrefetcher,
        "vldp": VldpPrefetcher,
        "ampm": AmpmPrefetcher,
        "sfp": sfp_factory,
        "sms": SmsPrefetcher,
        "bingo": BingoPrefetcher,
        "multi-event": MultiEventSpatialPrefetcher,
    }
