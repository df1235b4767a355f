"""Thin client for the analysis service.

:class:`ServeClient` is one connection speaking the framed protocol; it is
what ``repro client …`` and the bench executor's ``--serve-via`` routing
use.  A client is cheap — connect, a few requests, close — because all the
expensive state lives in the server.

Requests are idempotent by construction (same source + config → the same
result), so the client retries transparently on *transport* failures —
``ConnectionRefusedError`` while the server is still binding its socket, a
torn frame from a connection the server dropped mid-handshake, a reset
peer — with bounded, jittered exponential backoff.  Structured server
errors (:class:`protocol.ServeError`) are never retried: ``backpressure``
and ``deadline`` are the server telling the client something, not a flaky
transport.  ``stats`` counts requests, attempts, retries, and connects.
"""

from __future__ import annotations

import base64
import pickle
import random
import socket
import time
from typing import Callable, Dict, Optional

from . import protocol

DEFAULT_TIMEOUT_S = 120.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_S = 0.05

#: transport failures worth retrying; anything else propagates at once
_RETRYABLE = (ConnectionRefusedError, ConnectionResetError,
              BrokenPipeError, FileNotFoundError)


class ServeClient:
    """One framed connection to a running :class:`AnalysisServer`."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 backoff_s: float = DEFAULT_BACKOFF_S,
                 sleep: Callable[[float], None] = time.sleep,
                 rng: Optional[random.Random] = None) -> None:
        if socket_path is None and host is None:
            raise ValueError("need a socket path or a host/port pair")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self.max_attempts = max(1, max_attempts)
        self.backoff_s = backoff_s
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self.stats: Dict[str, int] = {
            "requests": 0, "attempts": 0, "retries": 0, "connects": 0,
        }
        # connect eagerly (with the same retry budget) so construction
        # against a dead endpoint still fails fast and loudly
        self._connect_with_retry()

    # -- connection management -----------------------------------------

    def _connect(self) -> None:
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self._timeout)
                sock.connect(self._socket_path)
            except BaseException:
                sock.close()  # a refused attempt must not leak its fd
                raise
        else:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout)
        self._sock = sock
        self.stats["connects"] += 1

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff for retry *attempt* (1-based)."""
        base = self.backoff_s * (2 ** (attempt - 1))
        return base * self._rng.uniform(0.5, 1.5)

    def _connect_with_retry(self) -> None:
        for attempt in range(1, self.max_attempts + 1):
            try:
                self._connect()
                return
            except _RETRYABLE:
                if attempt == self.max_attempts:
                    raise
                self.stats["retries"] += 1
                self._sleep(self._backoff(attempt))

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request kinds -------------------------------------------------

    def request(self, kind: str, **payload: object) -> Dict[str, object]:
        """Send one request; return the validated ok-response.

        Structured server errors raise :class:`protocol.ServeError` with
        the error code on ``.code`` — those are answers, not transport
        failures, and are never retried.  Connection-level failures
        (refused, reset, torn first frame) reconnect and retry up to
        ``max_attempts`` times with jittered exponential backoff; the
        request envelope (including its id) is reused verbatim, which is
        safe because requests are idempotent.
        """
        self.stats["requests"] += 1
        message = protocol.request(kind, **payload)
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            self.stats["attempts"] += 1
            try:
                if self._sock is None:
                    self._connect()
                protocol.send_message(self._sock, message)
                return protocol.check_response(
                    protocol.recv_message(self._sock))
            except protocol.ServeError:
                raise
            except (protocol.ProtocolError, *_RETRYABLE) as err:
                last = err
                self._drop()
                if attempt < self.max_attempts:
                    self.stats["retries"] += 1
                    self._sleep(self._backoff(attempt))
        assert last is not None
        raise last

    def analyze(self, source: str, k: int = 9, use_effects: bool = True,
                deadline_s: Optional[float] = None,
                want_pickle: bool = False,
                allow_partial: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "source": source, "k": k, "use_effects": use_effects,
        }
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        if want_pickle:
            payload["want_pickle"] = True
        if allow_partial:
            # opt in to anytime results: deadline expiry comes back as
            # ok + partial:true + degraded_sections instead of an error
            payload["allow_partial"] = True
        return self.request("analyze", **payload)

    def status(self) -> Dict[str, object]:
        return self.request("status")

    def flush(self) -> Dict[str, object]:
        return self.request("flush")

    def shutdown(self) -> Dict[str, object]:
        return self.request("shutdown")


def fetch_inference(source: str, k: int,
                    socket_path: Optional[str] = None,
                    host: Optional[str] = None, port: int = 0,
                    use_effects: bool = True):
    """Fetch a fully materialized ``InferenceResult`` from a server.

    The executor's ``--serve-via`` path: the response carries the pickled
    result (interned terms re-intern on load), so the caller gets exactly
    what a local :class:`LockInference` run would have produced.
    """
    with ServeClient(socket_path=socket_path, host=host, port=port) as client:
        response = client.analyze(source, k=k, use_effects=use_effects,
                                  want_pickle=True)
    return pickle.loads(base64.b64decode(response["pickle"]))
