"""Stat groups: counters, children, ratios, walking."""

from repro.common.stats import StatGroup


class TestCounters:
    def test_autocreate_and_accumulate(self):
        group = StatGroup("llc")
        group.add("hits")
        group.add("hits", 2)
        assert group.get("hits") == 3
        assert group["hits"] == 3

    def test_missing_counter_reads_zero(self):
        assert StatGroup("x").get("nope") == 0

    def test_set_overwrites(self):
        group = StatGroup("x")
        group.add("n", 5)
        group.set("n", 1)
        assert group.get("n") == 1

    def test_ratio(self):
        group = StatGroup("x")
        group.add("hits", 3)
        group.add("accesses", 4)
        assert group.ratio("hits", "accesses") == 0.75

    def test_ratio_zero_denominator(self):
        assert StatGroup("x").ratio("a", "b") == 0.0


class TestChildren:
    def test_child_is_cached(self):
        group = StatGroup("root")
        assert group.child("llc") is group.child("llc")

    def test_as_dict_nests(self):
        group = StatGroup("root")
        group.add("n", 1)
        group.child("sub").add("m", 2)
        assert group.as_dict() == {"n": 1, "sub": {"m": 2}}

    def test_walk_produces_dotted_paths(self):
        group = StatGroup("root")
        group.add("n", 1)
        group.child("sub").add("m", 2)
        assert dict(group.walk()) == {"root.n": 1, "root.sub.m": 2}


class TestStatCounterHandles:
    def test_handle_writes_are_visible_through_string_api(self):
        group = StatGroup("x")
        cell = group.counter("n")
        cell.add()
        cell.add(4)
        cell.value += 2  # the bare hot-loop form
        assert group.get("n") == 7
        assert group.as_dict() == {"n": 7}
        assert dict(group.walk()) == {"x.n": 7}

    def test_handle_is_stable_and_preserves_prior_value(self):
        group = StatGroup("x")
        group.add("n", 3)
        cell = group.counter("n")
        assert cell.value == 3
        assert group.counter("n") is cell

    def test_string_add_and_set_write_through_the_handle(self):
        group = StatGroup("x")
        cell = group.counter("n")
        group.add("n", 2)
        assert cell.value == 2
        group.set("n", 10)
        assert cell.value == 10

    def test_counters_snapshot_unwraps_handles(self):
        group = StatGroup("x")
        group.counter("n").add(3)
        snapshot = group.counters()
        assert snapshot == {"n": 3}
        assert isinstance(snapshot["n"], int)
