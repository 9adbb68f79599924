"""ServiceClient transport: typed errors and jittered poll backoff.

Route/status-code behaviour against the real server lives in
``test_api.py``; these tests cover the client's own failure handling —
responses no healthy daemon would send, and the polling loop's timing —
so they run against a stub HTTP server or a monkeypatched clock.
"""

import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.serve import ServiceClient, ServiceError
from repro.serve import client as client_mod


class NonJsonHandler(BaseHTTPRequestHandler):
    """2xx responses with bodies no JSON parser should meet — the shape
    an interposed proxy or a torn response produces."""

    def do_GET(self) -> None:  # noqa: N802
        body = b"<html>gateway interposed</html>" + b"x" * 500
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


@pytest.fixture
def non_json_server():
    server = HTTPServer(("127.0.0.1", 0), NonJsonHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


class TestNonJsonBody:
    def test_2xx_html_raises_typed_service_error(self, non_json_server):
        """Regression: a 2xx with a non-JSON body used to escape as the
        JSON parser's bare ``ValueError`` — callers catching
        ``ServiceError`` (every CLI path) crashed instead of reporting."""
        host, port = non_json_server
        client = ServiceClient(f"http://{host}:{port}", timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 200
        assert "non-JSON" in str(excinfo.value)
        assert "gateway interposed" in str(excinfo.value)

    def test_body_snippet_is_truncated(self, non_json_server):
        host, port = non_json_server
        client = ServiceClient(f"http://{host}:{port}", timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        # 200-byte snippet + quoting/prefix, never the whole body
        assert len(str(excinfo.value)) < 300


class FakeTime:
    """Deterministic monotonic clock + sleep recorder for _poll tests."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def fake_time():
    return FakeTime()


@pytest.fixture
def client(fake_time):
    """A client on the fake clock.  Only this instance is patched: the
    process-wide ``time`` module stays real, so a background thread's
    sleep can never land in the recorder."""
    client = ServiceClient("http://127.0.0.1:1")
    client._monotonic = fake_time.monotonic
    client._sleep = fake_time.sleep
    return client


class TestPollBackoff:
    def test_wait_backs_off_geometrically_with_jitter(
        self, client, fake_time, monkeypatch
    ):
        """The old fixed 0.25 s poll synchronised waiting clients into
        bursts; the interval must now grow geometrically (capped) with
        per-sleep jitter on top."""
        monkeypatch.setattr(client_mod.random, "random", lambda: 1.0)
        states = iter(["pending"] * 6 + ["done"])
        monkeypatch.setattr(
            client, "status", lambda job_id: {"id": job_id, "state": next(states)}
        )

        record = client.wait(
            "j1", timeout=100.0, poll_interval=0.25, max_interval=2.0
        )
        assert record["state"] == "done"

        expected, interval = [], 0.25
        for _ in range(6):
            expected.append(interval * 1.25)  # random()==1 -> full jitter
            interval = min(interval * 1.5, 2.0)
        assert fake_time.sleeps == pytest.approx(expected)
        assert fake_time.sleeps == sorted(fake_time.sleeps), "must not shrink"
        assert max(fake_time.sleeps) <= 2.0 * 1.25, "cap + jitter bound"

    def test_sleeps_vary_with_jitter(self, client, fake_time, monkeypatch):
        jitters = iter([0.0, 1.0, 0.5, 0.25, 0.75, 0.1])
        monkeypatch.setattr(
            client_mod.random, "random", lambda: next(jitters)
        )
        states = iter(["pending"] * 6 + ["done"])
        monkeypatch.setattr(
            client, "status", lambda job_id: {"id": job_id, "state": next(states)}
        )
        client.wait("j1", timeout=100.0, poll_interval=0.25, max_interval=2.0)
        assert len(set(fake_time.sleeps)) > 1, "jitter must decorrelate"

    def test_wait_timeout_names_last_state(
        self, client, fake_time, monkeypatch
    ):
        monkeypatch.setattr(client_mod.random, "random", lambda: 0.0)
        monkeypatch.setattr(
            client, "status", lambda job_id: {"id": job_id, "state": "running"}
        )
        with pytest.raises(TimeoutError, match="running"):
            client.wait("j1", timeout=3.0, poll_interval=0.5)
        assert fake_time.now <= 3.0 + 0.5, "sleeps are clamped to deadline"

    def test_wait_experiment_polls_same_loop(
        self, client, fake_time, monkeypatch
    ):
        monkeypatch.setattr(client_mod.random, "random", lambda: 0.0)
        states = iter(["running", "running", "done"])
        monkeypatch.setattr(
            client,
            "experiment",
            lambda experiment_id: {"id": experiment_id, "state": next(states)},
        )
        record = client.wait_experiment("e1", timeout=100.0)
        assert record["state"] == "done"
        assert len(fake_time.sleeps) == 2


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestServiceUnavailable:
    """Satellite: construction-time connection errors must surface as a
    typed error, never a raw ``URLError`` traceback."""

    def test_unreachable_daemon_raises_typed_error(self):
        from repro.serve import ServiceUnavailable

        client = ServiceClient(f"http://127.0.0.1:{_free_port()}", timeout=1.0)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.health()
        err = excinfo.value
        assert err.status == 503
        assert err.attempts == 1  # no connect_wait -> no silent retries
        assert isinstance(err.cause, BaseException)
        assert "unreachable" in str(err)

    def test_unavailable_is_a_service_error(self):
        """Existing ``except (ServiceError, OSError)`` CLI call sites
        must keep catching connection failures."""
        from repro.serve import ServiceUnavailable

        assert issubclass(ServiceUnavailable, ServiceError)

    def test_connect_wait_absorbs_startup_race(self):
        """A daemon that binds its socket ~0.3s after the client starts
        probing must be reached within the connect_wait budget."""
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class HealthHandler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                body = b'{"ok": true}'
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        port = _free_port()
        server_box = {}

        def bind_late():
            time.sleep(0.3)
            server = HTTPServer(("127.0.0.1", port), HealthHandler)
            server_box["server"] = server
            server.serve_forever()

        import time

        thread = threading.Thread(target=bind_late, daemon=True)
        thread.start()
        try:
            client = ServiceClient.connect(
                f"http://127.0.0.1:{port}", timeout=2.0, wait=10.0
            )
            assert client.health()["ok"] is True
        finally:
            server = server_box.get("server")
            if server is not None:
                server.shutdown()
                server.server_close()
            thread.join(5.0)

    def test_connect_gives_up_after_wait(self):
        from repro.serve import ServiceUnavailable

        with pytest.raises(ServiceUnavailable) as excinfo:
            ServiceClient.connect(
                f"http://127.0.0.1:{_free_port()}", timeout=0.5, wait=0.3
            )
        assert excinfo.value.attempts > 1  # it really did retry

    def test_post_connection_errors_surface_immediately(self):
        """connect_wait covers the *startup* race only: once the daemon
        has answered, a later outage must not stall behind retries."""
        client = ServiceClient(
            f"http://127.0.0.1:{_free_port()}", timeout=0.5, connect_wait=30.0
        )
        client._connected = True  # as if a prior request succeeded
        from repro.serve import ServiceUnavailable

        with pytest.raises(ServiceUnavailable) as excinfo:
            client.health()
        assert excinfo.value.attempts == 1


class TestBackpressureRetry:
    """Submissions honor 429 ``backpressure`` bodies with jittered
    sleeps; other 4xx propagate untouched."""

    def _client_with_responses(self, monkeypatch, responses, sleeps):
        client = ServiceClient("http://stub", backpressure_retries=6)
        calls = iter(responses)

        def fake_request(method, path, payload=None, timeout=None):
            outcome = next(calls)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request", fake_request)
        client._sleep = sleeps.append
        return client

    def _backpressure(self, retry_after=0.25):
        return ServiceError(
            429,
            "backpressure",
            {"code": "backpressure", "retry_after": retry_after},
        )

    def test_retries_then_succeeds(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(
            monkeypatch,
            [self._backpressure(), self._backpressure(), {"jobs": [{"id": "j1"}]}],
            sleeps,
        )
        assert client.submit({"workload": "streaming"})["id"] == "j1"
        assert len(sleeps) == 2
        for slept in sleeps:
            assert 0.25 <= slept <= 0.25 * 1.25  # retry_after + jitter

    def test_retry_budget_exhausts(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(
            monkeypatch, [self._backpressure()] * 10, sleeps
        )
        client.backpressure_retries = 2
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"workload": "streaming"})
        assert excinfo.value.status == 429
        assert len(sleeps) == 2

    def test_quarantine_429_is_not_retried(self, monkeypatch):
        sleeps = []
        client = self._client_with_responses(
            monkeypatch,
            [ServiceError(429, "quarantined", {"code": "quarantined"})],
            sleeps,
        )
        with pytest.raises(ServiceError):
            client.submit({"workload": "streaming"})
        assert sleeps == []
