"""Anytime serving and the retrying client.

Server side: a client that opts in with ``allow_partial`` receives a
sound degraded result (``ok`` + ``partial: true`` + ``degraded_sections``)
when its per-request deadline expires, instead of the structured
``deadline`` error; partial results are never memoized, so a later
request with a sane deadline recomputes the full answer.  Malformed
sources come back as ``bad-request`` carrying the front end's rendered
diagnostic.

Client side: requests are idempotent, so :class:`ServeClient` retries
transport failures — connection refused, a torn first frame, a server
that died mid-exchange — with bounded jittered exponential backoff,
counting attempts in ``client.stats``.  Structured server errors are
answers, not transport failures, and are never retried.
"""

import os
import random
import socket
import threading

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.serve import AnalysisServer, ServeClient, ServeError, protocol


@pytest.fixture()
def server(tmp_path):
    srv = AnalysisServer(
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "cache"),
        max_inflight=2,
    )
    srv.start()
    yield srv
    assert srv.stop(timeout=30), "server failed to drain"


# ---------------------------------------------------------------------------
# partial responses
# ---------------------------------------------------------------------------


def test_expired_deadline_with_opt_in_yields_partial(server):
    source = ALL_BENCHMARKS["vacation"].source
    with ServeClient(socket_path=server.socket_path) as client:
        response = client.analyze(source, k=9, deadline_s=0.0,
                                  allow_partial=True)
        assert response["partial"] is True
        assert response["served"] == "partial"
        assert response["degraded_sections"], "expiry must degrade sections"

        # without the opt-in the same expiry stays a structured error
        with pytest.raises(ServeError) as caught:
            client.analyze(source, k=9, deadline_s=0.0)
        assert caught.value.code == "deadline"


def test_partial_results_are_never_memoized(server):
    source = ALL_BENCHMARKS["genome"].source
    with ServeClient(socket_path=server.socket_path) as client:
        first = client.analyze(source, k=9, deadline_s=0.0,
                               allow_partial=True)
        assert first["served"] == "partial"
        # the degraded envelope must not poison the memo: a follow-up with
        # no deadline gets the full result, computed fresh
        full = client.analyze(source, k=9)
        assert full["served"] in ("computed", "warm")
        assert full["partial"] is False
        assert full["degraded_sections"] == []
        # and the *complete* result is what gets memoized
        assert client.analyze(source, k=9)["served"] == "memo"


def test_complete_memo_may_serve_partial_requests(server):
    source = ALL_BENCHMARKS["list"].source
    with ServeClient(socket_path=server.socket_path) as client:
        client.analyze(source, k=9)
        # a complete answer is a valid (maximal) anytime answer
        repeat = client.analyze(source, k=9, deadline_s=0.0,
                                allow_partial=True)
        assert repeat["served"] == "memo"
        assert repeat["partial"] is False


def test_malformed_source_is_bad_request_with_diagnostic(server):
    with ServeClient(socket_path=server.socket_path) as client:
        with pytest.raises(ServeError) as caught:
            client.analyze("void main() { int x = ; }")
        assert caught.value.code == "bad-request"
        assert "error[parse]" in caught.value.message
        # the connection and worker survive
        assert client.status()["draining"] is False


# ---------------------------------------------------------------------------
# retrying client
# ---------------------------------------------------------------------------


class _StubServer:
    """A scriptable Unix-socket peer: each accepted connection runs the
    next behavior from *script* ('drop' closes after reading the request;
    'ok'/'error' answer it)."""

    def __init__(self, path, script):
        self.path = path
        self.script = list(script)
        self.accepted = 0
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for behavior in self.script:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # close() shut the listener down: no more peers
            self.accepted += 1
            try:
                request = protocol.recv_message(conn)
                if behavior == "drop" or request is None:
                    continue  # close without replying: a torn first frame
                if behavior == "error":
                    protocol.send_message(conn, protocol.error_response(
                        str(request["id"]), "backpressure", "queue full"))
                else:
                    protocol.send_message(conn, protocol.ok_response(
                        str(request["id"]), echo=request.get("kind")))
            finally:
                conn.close()

    def close(self):
        # a script entry no client used leaves _serve blocked in accept();
        # shutdown wakes it (closing alone would race the blocked call)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive(), "stub server thread hung"


def _no_sleep(_seconds):
    pass


def test_torn_first_frame_is_retried_transparently(tmp_path):
    path = str(tmp_path / "stub.sock")
    stub = _StubServer(path, ["drop", "ok"])
    try:
        client = ServeClient(socket_path=path, sleep=_no_sleep,
                             rng=random.Random(0))
        with client:
            response = client.request("status")
        assert response["echo"] == "status"
        assert client.stats == {"requests": 1, "attempts": 2,
                                "retries": 1, "connects": 2}
    finally:
        stub.close()


def test_retries_exhaust_and_raise_the_transport_error(tmp_path):
    path = str(tmp_path / "stub.sock")
    stub = _StubServer(path, ["drop", "drop", "drop"])
    try:
        client = ServeClient(socket_path=path, max_attempts=3,
                             sleep=_no_sleep, rng=random.Random(0))
        with client:
            with pytest.raises(protocol.ProtocolError):
                client.request("status")
        assert client.stats["attempts"] == 3
        assert client.stats["retries"] == 2
    finally:
        stub.close()


def test_server_errors_are_never_retried(tmp_path):
    path = str(tmp_path / "stub.sock")
    stub = _StubServer(path, ["error", "ok"])
    try:
        client = ServeClient(socket_path=path, sleep=_no_sleep,
                             rng=random.Random(0))
        with client:
            with pytest.raises(ServeError) as caught:
                client.request("status")
        assert caught.value.code == "backpressure"
        assert client.stats["attempts"] == 1
        assert client.stats["retries"] == 0
    finally:
        stub.close()


def test_connection_refused_retries_with_backoff_until_bound(tmp_path):
    """The endpoint does not exist yet; the client's backoff sleeps give
    the 'server' time to bind, and the eager connect succeeds on the
    final attempt."""
    path = str(tmp_path / "late.sock")
    sleeps = []
    stub_box = []

    def bind_on_second_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 2:
            stub_box.append(_StubServer(path, ["ok"]))

    client = ServeClient(socket_path=path, max_attempts=3,
                         sleep=bind_on_second_sleep, rng=random.Random(7))
    try:
        with client:
            assert client.request("status")["echo"] == "status"
        assert client.stats["connects"] == 1
        assert client.stats["retries"] == 2
        # exponential shape: the second wait is drawn from a doubled base
        assert len(sleeps) == 2 and sleeps[0] > 0
    finally:
        if stub_box:
            stub_box[0].close()


def test_refused_connect_exhausts_and_raises(tmp_path):
    path = str(tmp_path / "nobody.sock")
    sleeps = []
    with pytest.raises((FileNotFoundError, ConnectionRefusedError)):
        ServeClient(socket_path=path, max_attempts=3,
                    sleep=sleeps.append, rng=random.Random(1))
    assert len(sleeps) == 2  # two backoffs between three attempts
    assert not os.path.exists(path)


def test_backoff_is_jittered_exponential():
    client = ServeClient.__new__(ServeClient)  # no connect
    client.backoff_s = 0.1
    client._rng = random.Random(123)
    waits = [client._backoff(attempt) for attempt in (1, 2, 3)]
    for attempt, wait in zip((1, 2, 3), waits):
        base = 0.1 * (2 ** (attempt - 1))
        assert 0.5 * base <= wait <= 1.5 * base
