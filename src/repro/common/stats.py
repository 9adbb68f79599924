"""Hierarchical statistics counters.

Every simulator component owns a :class:`StatGroup`; groups nest, so a full
run produces one tree that the reporting code flattens into the rows the
paper's figures need (misses, coverage, overpredictions, cycles, ...).

Hot components (the LLC access path, the DRAM model, the core retire loop)
increment the same few counters millions of times per run.  For those,
:meth:`StatGroup.counter` hands out a :class:`StatCounter` — a mutable
cell that lives *inside* the group's counter table — so the per-event cost
is one attribute increment instead of a string hash plus two dict
operations.  Handles and the string API stay coherent: ``get``/``walk``/
``as_dict`` read through the cell, ``add``/``set`` write through it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple, Union

Number = Union[int, float]


class StatCounter:
    """A fast-path handle to one counter.

    Obtained via :meth:`StatGroup.counter`; the owning group stores the
    cell itself, so ``handle.add()`` (or a bare ``handle.value += n`` in
    the hottest loops) is immediately visible to every reader of the
    group.
    """

    __slots__ = ("value",)

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def add(self, amount: Number = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"StatCounter({self.value!r})"


class StatGroup:
    """A named bag of counters with nested sub-groups.

    Counters auto-create at zero on first increment, so components never
    need registration boilerplate, yet ``as_dict`` gives a stable, fully
    enumerable snapshot for reports and tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # values are plain numbers, or StatCounter cells once a fast-path
        # handle has been handed out for that name
        self._counters: "OrderedDict[str, object]" = OrderedDict()
        self._children: "OrderedDict[str, StatGroup]" = OrderedDict()

    # -- counters ---------------------------------------------------------
    def add(self, counter: str, amount: Number = 1) -> None:
        cell = self._counters.get(counter, 0)
        if type(cell) is StatCounter:
            cell.value += amount
        else:
            self._counters[counter] = cell + amount

    def set(self, counter: str, value: Number) -> None:
        cell = self._counters.get(counter)
        if type(cell) is StatCounter:
            cell.value = value
        else:
            self._counters[counter] = value

    def get(self, counter: str) -> Number:
        cell = self._counters.get(counter, 0)
        return cell.value if type(cell) is StatCounter else cell

    def __getitem__(self, counter: str) -> Number:
        return self.get(counter)

    def counter(self, name: str) -> StatCounter:
        """A :class:`StatCounter` cell for ``name`` (created at zero).

        Repeated calls return the same cell; any value accumulated through
        the string API beforehand is preserved.
        """
        cell = self._counters.get(name, 0)
        if type(cell) is not StatCounter:
            cell = StatCounter(cell)
            self._counters[name] = cell
        return cell

    # -- ratios -------------------------------------------------------------
    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe counter ratio; 0.0 when the denominator is zero."""
        denom = self.get(denominator)
        return self.get(numerator) / denom if denom else 0.0

    # -- children ------------------------------------------------------------
    def child(self, name: str) -> "StatGroup":
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    # -- introspection -----------------------------------------------------------
    def counters(self) -> Dict[str, Number]:
        return {
            name: cell.value if type(cell) is StatCounter else cell
            for name, cell in self._counters.items()
        }

    def as_dict(self) -> Dict[str, object]:
        """Snapshot of this group and all descendants."""
        out: Dict[str, object] = self.counters()
        for name, group in self._children.items():
            out[name] = group.as_dict()
        return out

    def snapshot(self) -> Dict[str, Number]:
        """Flat ``{dotted.path: value}`` copy of the whole tree.

        The timeline recorder and the engine's measurement-window logic
        both diff snapshots: for any partition of a run into intervals,
        the per-interval deltas of a counter sum to its whole-run total
        (the property suite pins this down).
        """
        return dict(self.walk())

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, Number]]:
        """Yield ``(dotted.path, value)`` for every counter in the tree."""
        base = f"{prefix}{self.name}."
        for counter, cell in self._counters.items():
            yield base + counter, (
                cell.value if type(cell) is StatCounter else cell
            )
        for group in self._children.values():
            yield from group.walk(base)

    def __repr__(self) -> str:
        return f"StatGroup({self.name!r}, {len(self._counters)} counters)"
