"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import service, specs, tracing  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Ledger,
    Report,
    in_reference_seconds,
    result_digest,
    tail,
    typical_pass,
)


# -- order statistics -------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(30, 0, -1))  # 1..30, unsorted
    value, percentile, n = tail(values)
    assert (value, n) == (20, 30)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        tail(list(range(10)))
    value, percentile, n = tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert percentile == pytest.approx(100 / 11)


def test_typical_pass_sums_each_points_median_over_passes():
    # three passes of two points; the second pass ran during a slow burst
    seconds = [1.0, 2.0, 3.0, 6.0, 1.2, 2.2]
    assert typical_pass(seconds, 2) == pytest.approx(1.2 + 2.2)
    with pytest.raises(ValueError):
        typical_pass(seconds[:-1], 2)


def test_reference_seconds_divide_by_the_loops_median_speed():
    # the loop ran 1000 iterations in 2 ms (median), so 1e6 iterations,
    # one reference second at rate 1e6, take 2 host seconds
    loops = [0.002, 0.010, 0.0019]
    assert in_reference_seconds([1.0, 3.0], loops, 1000, 1e6) == pytest.approx([0.5, 1.5])


# -- spans --------------------------------------------------------------------


def _span(span_id, start, end, parent=None, name="s"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_is_span_minus_the_union_of_its_children():
    spans = [
        _span("p", 0.0, 10.0),
        _span("a", 1.0, 3.0, "p"),
        _span("b", 2.0, 5.0, "p"),   # overlaps a: counted once
        _span("c", 8.0, 12.0, "p"),  # runs past the parent: clipped
        _span("g", 1.5, 2.5, "a"),   # a grandchild is not p's child
    ]
    selfs = tracing.self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs["a"] == pytest.approx(2.0 - 1.0)
    assert selfs["c"] == pytest.approx(4.0)


def test_recorder_links_nested_spans_to_their_parent():
    recorder = tracing.SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    assert recorder.current() == "inner"
    recorder.end(inner, "inner")
    recorder.end(outer, "outer")
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert recorder.current() is None


# -- module -> layer map --------------------------------------------------------


class _Code:
    """Stands in for a code object: hashable, with a ``co_name``."""

    def __init__(self, name):
        self.co_name = name


def _frame(module, caller=None, name="f"):
    return types.SimpleNamespace(f_code=_Code(name), f_globals={"__name__": module},
                                 f_back=caller)


def test_common_frames_are_charged_to_their_caller():
    layers = tracing.LayerMap()
    caller = _frame("repro.memsys.cache")
    assert layers.layer_of(_frame("repro.common.stats", caller)) == "memsys"
    # standard library and numpy Python frames also go to the caller
    assert layers.layer_of(_frame("json.encoder", _frame("repro.common.stats",
                                                         _frame("repro.sim.vector.misspath")))) \
        == "vector.misspath"


def test_layer_map_prefixes():
    assert tracing.module_layer("repro.sim.vector.classify") == "vector.classify"
    assert tracing.module_layer("repro.sim.vector") == "vector.replay"
    assert tracing.module_layer("repro.core.bingo") == "prefetchers"
    assert tracing.module_layer("repro.common.bitvec") is None
    assert tracing.module_layer("repro.serve.api") == "serve.api"
    assert tracing.module_layer("numpy.core.numeric") is None
    layers = tracing.LayerMap()
    assert layers.layer_of(_frame("numpy", _frame("repro.sim.engine"), name="<module>")) == "import"
    assert layers.layer_of(_frame("json")) == tracing.HARNESS


# -- failure accounting against a fake daemon -------------------------------------


SPEC = specs.wire_spec("streaming", 1, "nextline", {"degree": 2})
RESULT = {"workload": "streaming", "cores": [{"instructions": 1, "cycles": 2.5}]}


class _FakeDaemon(BaseHTTPRequestHandler):
    """``POST /jobs`` answers ``self.server.post_status``; a job is done
    at once with ``self.server.result``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _json(self, status, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.server.post_status != 202:
            self._json(self.server.post_status, {"error": "backpressure", "retry_after": 1})
        else:
            self._json(202, {"jobs": [{"id": "j1", "state": "pending", "deduped": False}]})

    def do_GET(self):  # noqa: N802
        self._json(200, {"id": "j1", "state": "done", "submitted_at": 1.0,
                         "started_at": 1.1, "finished_at": 1.2, "attempts": 1,
                         "digest": "d", "result": self.server.result})


class _Refs:
    def __init__(self, digest):
        self.digest = digest

    def get(self, job):
        return self.digest


@pytest.fixture
def daemon():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeDaemon)
    server.post_status = 202
    server.result = RESULT
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()


def test_a_refused_submission_counts_as_failed(daemon):
    daemon.post_status = 429
    ledger = Ledger()
    outcome = service.run_op(service.Http(daemon.server_address[1]),
                             specs.Op("cold", SPEC), _Refs(result_digest(RESULT)), ledger)
    assert not outcome.ok
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.failed_share > 0
    assert ledger.reasons == {"refused:429": 1}


def test_an_altered_result_counts_as_failed(daemon):
    altered = json.loads(json.dumps(RESULT))
    altered["cores"][0]["cycles"] = 2.5000000001
    daemon.result = altered
    ledger = Ledger()
    port = daemon.server_address[1]
    refs = _Refs(result_digest(RESULT))
    service.run_op(service.Http(port), specs.Op("cold", SPEC), refs, ledger)
    assert ledger.failed_share > 0
    assert ledger.reasons == {"wrong-result": 1}

    daemon.result = RESULT
    ledger = Ledger()
    service.run_op(service.Http(port), specs.Op("cold", SPEC), refs, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)


# -- plan and report ----------------------------------------------------------


def test_serve_plan_mix_and_determinism():
    plan = specs.serve_plan(7, cycles=6)
    assert plan.executed == 2 * plan.cached  # 2:1 cold to cached
    assert plan.dedup_hits == 2 * 2  # rounds 0 and 3 of both clients
    assert plan.submissions == plan.executed + plan.cached + plan.dedup_hits
    cold = [json.dumps(op.spec, sort_keys=True) for ops in plan.threads
            for op in ops if op.kind != "cached"]
    assert len(cold) == len(set(cold))  # every cold spec runs once
    for ops in plan.threads:  # a cached spec already finished on this client
        seen = set()
        for op in ops:
            key = json.dumps(op.spec, sort_keys=True)
            assert op.kind != "cached" or key in seen
            seen.add(key)
    assert specs.serve_plan(7, cycles=6) == plan
    assert specs.serve_plan(8, cycles=6) != plan


def test_result_line_has_exactly_the_declared_metrics():
    report = Report()
    report.add("a_s", 1.5, "s", 3)
    report.add("b", 2.0, "count", 1)
    line = json.loads(report.result_line([("a_s", "s")], Ledger(attempted=3), True))
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"a_s": {"value": 1.5, "unit": "s"}}}
    with pytest.raises(KeyError):
        report.result_line([("missing", "s")], Ledger(), True)


def test_benchmark_json_declares_the_contract_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(specs.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
