"""HTTP plumbing: routes, status codes, and error bodies.

These tests run the stdlib server on an ephemeral port against a
service whose worker slots are *not* started — submission, listing and
error paths need the queue, not simulations.  End-to-end behaviour
(dedup, retries, drain) lives in ``test_service.py``.
"""

import dataclasses
import http.client
import json
import socket
import threading

import pytest

from repro.common.config import small_system
from repro.serve import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SimulationService,
    make_server,
)
from repro.serve.api import MAX_BODY_BYTES


def wire_spec(seed: int = 7, **overrides):
    spec = {
        "workload": "streaming",
        "prefetcher": "none",
        "instructions": 1500,
        "warmup": 0,
        "seed": seed,
        "scale": 0.02,
        "compile": False,
        "system": dataclasses.asdict(small_system(num_cores=4)),
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def api():
    """(service, client, host, port) with the HTTP server running."""
    service = SimulationService(
        ServiceConfig(workers=1, cache_dir=None, job_timeout=30.0)
    )
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    client = ServiceClient(f"http://{host}:{port}", timeout=5.0)
    try:
        yield service, client, host, port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        service.drain(timeout=5.0)


def raw_post(host, port, path, body: bytes, content_length=None):
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        length = len(body) if content_length is None else content_length
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(length))
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def pipelined_post(host, port, content_length, body: bytes) -> bytes:
    """Everything the server sends back for a ``POST /jobs`` with
    ``content_length`` and ``body``, pipelined with ``GET /healthz`` on
    one connection, read until the server closes that connection."""
    request = (
        f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode() + body + f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    received = b""
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:
            pass  # closing with bytes unread may send a reset after the reply
    return received


class TestRoutes:
    def test_healthz(self, api):
        _, client, _, _ = api
        health = client.health()
        assert health["ok"] is True
        assert health["state"] == "running"
        assert health["queue_depth"] == 0

    def test_metrics_shape(self, api):
        _, client, _, _ = api
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["in_flight"] == 0
        assert "executor_totals" in metrics
        assert "counters" in metrics
        assert set(metrics["engine_tiers"]) == {
            "vectorized",
            "general",
            "demoted",
            "demoted_ineligible_policy",
        }

    def test_unknown_route_404(self, api):
        _, client, _, _ = api
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, api):
        _, client, _, _ = api
        with pytest.raises(ServiceError) as excinfo:
            client.status("does-not-exist")
        assert excinfo.value.status == 404


class TestSubmission:
    def test_single_submit_accepted(self, api):
        _, client, _, _ = api
        accepted = client.submit(wire_spec())
        assert accepted["state"] == "pending"
        assert not accepted["deduped"]
        record = client.status(accepted["id"])
        assert record["state"] == "pending"
        assert record["job"]["workload"] == "streaming"

    def test_batch_submit(self, api):
        _, client, _, _ = api
        accepted = client.submit_many([wire_spec(seed=1), wire_spec(seed=2)])
        assert len(accepted) == 2
        assert accepted[0]["id"] != accepted[1]["id"]
        assert len(client.jobs()) == 2

    def test_duplicate_submit_dedups(self, api):
        _, client, _, _ = api
        first = client.submit(wire_spec(seed=9))
        second = client.submit(wire_spec(seed=9))
        assert second["id"] == first["id"]
        assert second["deduped"] is True
        assert len(client.jobs()) == 1

    def test_priority_visible_on_record(self, api):
        _, client, _, _ = api
        accepted = client.submit(wire_spec(), priority=7)
        assert client.status(accepted["id"])["priority"] == 7


class TestBadRequests:
    def test_bad_spec_400(self, api):
        _, client, _, _ = api
        with pytest.raises(ServiceError) as excinfo:
            client.submit(wire_spec(bogus_knob=1))
        assert excinfo.value.status == 400
        assert "bogus_knob" in str(excinfo.value)

    def test_trace_path_rejected_400(self, api):
        _, client, _, _ = api
        with pytest.raises(ServiceError) as excinfo:
            client.submit(wire_spec(obs={"trace_path": "/tmp/x.jsonl"}))
        assert excinfo.value.status == 400

    def test_invalid_json_400(self, api):
        _, _, host, port = api
        status, body = raw_post(host, port, "/jobs", b"{nope")
        assert status == 400
        assert "JSON" in body["error"]

    def test_empty_body_400(self, api):
        _, _, host, port = api
        status, _ = raw_post(host, port, "/jobs", b"")
        assert status == 400

    def test_missing_job_key_400(self, api):
        _, _, host, port = api
        status, body = raw_post(host, port, "/jobs", b"{}")
        assert status == 400
        assert "job" in body["error"]

    def test_non_integer_priority_400(self, api):
        _, _, host, port = api
        payload = json.dumps(
            {"job": wire_spec(), "priority": "high"}
        ).encode()
        status, _ = raw_post(host, port, "/jobs", payload)
        assert status == 400

    def test_post_to_unknown_route_404(self, api):
        _, _, host, port = api
        status, _ = raw_post(host, port, "/nope", b"{}")
        assert status == 404

    def test_malformed_content_length_400(self, api):
        # regression: a non-integer length raised in the handler thread,
        # which closed the connection without answering
        _, _, host, port = api
        for length in ("abc", "1e3"):
            status, body = raw_post(
                host, port, "/jobs", b"{}", content_length=length
            )
            assert status == 400
            assert body["error"] == "bad Content-Length"

    @pytest.mark.parametrize(
        "length, status", [(-5, 400), (MAX_BODY_BYTES + 1, 413)]
    )
    def test_rejected_length_closes_the_connection(self, api, length, status):
        # regression: the unread body was parsed as the next request and
        # answered with an HTML "400 Bad request syntax"
        _, _, host, port = api
        body = json.dumps({"job": wire_spec()}).encode()
        reply = pipelined_post(host, port, length, body)
        head, _, rest = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line.split()[1] == str(status)
        headers = dict(line.split(": ", 1) for line in header_lines)
        size = int(headers["Content-Length"])
        assert "error" in json.loads(rest[:size])
        assert rest[size:] == b"", "a second answer followed the rejection"


class TestDraining:
    def test_submit_while_draining_503(self, api):
        service, client, _, _ = api
        service.drain(timeout=1.0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(wire_spec())
        assert excinfo.value.status == 503
        assert client.health()["state"] == "draining"


def raw_request(host, port, method, path, payload=None):
    """(status, headers, body) — for asserting on response headers."""
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return (
            response.status,
            dict(response.getheaders()),
            json.loads(response.read().decode("utf-8")),
        )
    finally:
        conn.close()


@pytest.fixture
def cluster_api(tmp_path):
    """A frontend with a cache root and a tight admission bound."""
    service = SimulationService(
        ServiceConfig(
            workers=0,
            cache_dir=str(tmp_path / "cache"),
            max_queue_depth=1,
            lease_ttl=30.0,
        )
    )
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    client = ServiceClient(
        f"http://{host}:{port}", timeout=5.0, backpressure_retries=0
    )
    try:
        yield service, client, host, port
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        service.drain(timeout=5.0)


class TestWireVersion:
    def test_job_spec_version_mismatch_409(self, api):
        _, _, host, port = api
        spec = dict(wire_spec(), wire_version=999)
        status, body = raw_post(
            host, port, "/jobs", json.dumps({"job": spec}).encode()
        )
        assert status == 409
        assert body["code"] == "wire-version"
        assert body["ours"] >= 1

    def test_client_raises_typed_wire_error(self, api):
        from repro.serve import WireVersionError

        _, client, _, _ = api
        with pytest.raises(WireVersionError):
            client.submit(dict(wire_spec(), wire_version=999))

    def test_cluster_call_version_mismatch_409(self, api):
        _, _, host, port = api
        status, body = raw_post(
            host,
            port,
            "/cluster/register",
            json.dumps({"node": "w1", "wire_version": 999}).encode(),
        )
        assert status == 409
        assert body["code"] == "wire-version"

    def test_absent_version_is_compatible(self, api):
        _, _, host, port = api
        status, body = raw_post(
            host,
            port,
            "/cluster/register",
            json.dumps({"node": "w1"}).encode(),
        )
        assert status == 200
        assert body["wire_version"] >= 1


class TestClusterRoutes:
    def test_register_returns_parameters(self, cluster_api):
        _, client, _, _ = cluster_api
        info = client.cluster_register("w1", capacity=2)
        assert info["lease_ttl"] == 30.0
        assert info["cache_enabled"] is True

    def test_lease_unregistered_node_404(self, cluster_api):
        _, client, _, _ = cluster_api
        with pytest.raises(ServiceError) as excinfo:
            client.cluster_lease("ghost", wait=0.0)
        assert excinfo.value.status == 404
        assert excinfo.value.body["code"] == "unknown-node"

    def test_lease_and_report_over_http(self, cluster_api):
        service, client, _, _ = cluster_api
        client.cluster_register("w1")
        assert client.cluster_lease("w1", wait=0.0) is None  # empty queue

        accepted = client.submit(wire_spec(seed=21))
        lease = client.cluster_lease("w1", wait=0.0)
        assert lease is not None
        assert lease["job_id"] == accepted["id"]
        assert lease["job"]["workload"] == "streaming"
        # reporting a failure requeues it through the retry path
        ok = client.cluster_report(
            "w1",
            lease["id"],
            lease["job_id"],
            failure={"kind": "worker-crash", "message": "test crash"},
        )
        assert ok is True
        assert client.status(accepted["id"])["state"] == "pending"

    def test_heartbeat_renews(self, cluster_api):
        _, client, _, _ = cluster_api
        client.cluster_register("w1")
        assert client.cluster_heartbeat("w1", inflight=0, leases=[]) == 0

    def test_metrics_exposes_cluster_gauges(self, cluster_api):
        service, client, _, _ = cluster_api
        client.cluster_register("w1", capacity=2)
        client.submit(wire_spec(seed=22))
        lease = client.cluster_lease("w1", wait=0.0)
        assert lease is not None

        metrics = client.metrics()
        cluster = metrics["cluster"]
        worker = cluster["workers"]["w1"]
        assert worker["inflight"] == 1
        assert worker["leases"] == 1
        assert worker["heartbeat_age"] >= 0
        assert worker["capacity"] == 2
        assert cluster["leases_inflight"] == 1
        assert cluster["steals"] == 0
        assert cluster["admission_rejected"] == 0
        admission = metrics["admission"]
        assert admission["max_depth"] == 1
        assert admission["rejected"] == 0


class TestAdmissionControl:
    def test_429_with_retry_after_header(self, cluster_api):
        _, client, host, port = cluster_api
        client.submit(wire_spec(seed=31))  # fills the depth-1 queue
        status, headers, body = raw_request(
            host,
            port,
            "POST",
            "/jobs",
            {"job": wire_spec(seed=32)},
        )
        assert status == 429
        assert body["code"] == "backpressure"
        assert body["retry_after"] > 0
        assert body["queue_depth"] == 1
        assert int(headers["Retry-After"]) >= 1

    def test_client_surfaces_backpressure_when_retries_disabled(
        self, cluster_api
    ):
        _, client, _, _ = cluster_api
        client.submit(wire_spec(seed=31))
        with pytest.raises(ServiceError) as excinfo:
            client.submit(wire_spec(seed=32))
        assert excinfo.value.status == 429
        assert excinfo.value.body["code"] == "backpressure"

    def test_dedup_submission_admitted_through_full_queue(self, cluster_api):
        _, client, _, _ = cluster_api
        first = client.submit(wire_spec(seed=31))
        twin = client.submit(wire_spec(seed=31))
        assert twin["deduped"] is True
        assert twin["id"] == first["id"]

    def test_rejections_counted_in_metrics(self, cluster_api):
        _, client, _, _ = cluster_api
        client.submit(wire_spec(seed=31))
        with pytest.raises(ServiceError):
            client.submit(wire_spec(seed=32))
        metrics = client.metrics()
        assert metrics["admission"]["rejected"] == 1
        assert metrics["cluster"]["admission_rejected"] == 1


class TestClusterCacheRoutes:
    DIGEST = "ab" * 32

    def test_put_get_roundtrip(self, cluster_api):
        service, _, host, port = cluster_api
        # the frontend's own result cache stores with no node registered
        assert service.cluster.snapshot()["workers"] == {}
        status, _, body = raw_request(
            host,
            port,
            "PUT",
            f"/cluster/cache/{self.DIGEST}",
            {"result": {"ipc": 1.25}},
        )
        assert status == 200 and body["stored"] is True
        status, _, body = raw_request(
            host, port, "GET", f"/cluster/cache/{self.DIGEST}"
        )
        assert status == 200
        assert body["result"] == {"ipc": 1.25}
        assert service.cache.get(self.DIGEST) == {"ipc": 1.25}

    def test_miss_404(self, cluster_api):
        _, _, host, port = cluster_api
        status, _, body = raw_request(
            host, port, "GET", f"/cluster/cache/{'cd' * 32}"
        )
        assert status == 404
        assert body["code"] == "miss"

    def test_malformed_digest_400(self, cluster_api):
        _, _, host, port = cluster_api
        status, _, body = raw_request(
            host, port, "GET", "/cluster/cache/not-a-digest"
        )
        assert status == 400

    def test_client_cache_helpers(self, cluster_api):
        _, client, _, _ = cluster_api
        assert client.cache_get(self.DIGEST) is None
        assert client.cache_put(self.DIGEST, {"ipc": 2.0}) is True
        assert client.cache_get(self.DIGEST) == {"ipc": 2.0}
