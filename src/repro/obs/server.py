"""A tiny in-process metrics/progress HTTP exporter.

:class:`MetricsServer` wraps a stdlib :class:`~http.server.ThreadingHTTPServer`
running in a daemon thread and serves three read-only endpoints:

========================  ====================================================
``GET /metrics``          the attached registry's Prometheus text exposition
                          (live progress gauges refreshed on every scrape)
``GET /progress``         the attached tracker's snapshot as JSON
``GET /healthz``          ``ok`` — liveness for supervisors
========================  ====================================================

It binds ``127.0.0.1`` by default and never mutates engine state, so
attaching it to a run costs nothing on the hot path — scrapes read the
(thread-safe) registry and tracker from the server's handler threads.
Pass ``port=0`` for an OS-assigned ephemeral port and read it back from
:attr:`MetricsServer.port`.

    server = MetricsServer(registry=metrics, progress=tracker).start()
    print(server.url)          # e.g. http://127.0.0.1:49321
    ...
    server.close()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import InvalidConfigError
from .live import ProgressTracker
from .metrics import MetricsRegistry

__all__ = ["MetricsServer", "PROMETHEUS_CONTENT_TYPE"]

#: The content type Prometheus scrapers expect from a text endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes the three endpoints; everything else is 404."""

    # Keep handler threads from blocking forever on half-open sockets.
    timeout = 10
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            self._send_metrics()
        elif path == "/progress":
            self._send_progress()
        elif path == "/healthz":
            self._send(200, "text/plain; charset=utf-8", b"ok\n")
        else:
            self._send(404, "text/plain; charset=utf-8", b"not found\n")

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_metrics(self) -> None:
        registry = self.server.registry  # type: ignore[attr-defined]
        if registry is None:
            self._send(404, "text/plain; charset=utf-8", b"no metrics registry\n")
            return
        progress = self.server.progress  # type: ignore[attr-defined]
        if progress is not None:
            progress.publish_gauges(registry)
        body = registry.render_prometheus().encode("utf-8")
        self._send(200, PROMETHEUS_CONTENT_TYPE, body)

    def _send_progress(self) -> None:
        progress = self.server.progress  # type: ignore[attr-defined]
        if progress is None:
            self._send(404, "application/json", b'{"error": "no progress tracker"}\n')
            return
        snapshot = progress.snapshot()
        body = (json.dumps(snapshot.as_dict(), sort_keys=True) + "\n").encode("utf-8")
        self._send(200, "application/json", body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter (scrapes are periodic)."""


class MetricsServer:
    """Serve a registry and/or tracker over localhost HTTP.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` backing
        ``/metrics`` (``None`` turns the endpoint into a 404).
    progress:
        The :class:`~repro.obs.live.ProgressTracker` backing
        ``/progress``; when present its gauges are refreshed into the
        registry on every ``/metrics`` scrape.
    host, port:
        Bind address; ``port=0`` asks the OS for an ephemeral port.  A
        port outside 0–65535 raises :class:`~repro.errors.InvalidConfigError`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressTracker] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if not 0 <= port <= 65535:
            raise InvalidConfigError(f"port must be in 0-65535, got {port}")
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reads these through self.server (one server instance
        # per MetricsServer, so this is plain composition, not a global).
        self._httpd.registry = registry  # type: ignore[attr-defined]
        self._httpd.progress = progress  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-metrics-server:{self.port}",
            daemon=True,
        )
        self._started = False

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL, e.g. ``http://127.0.0.1:49321``."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Begin serving in a daemon thread; returns self for chaining."""
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._started:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc_val, exc_tb) -> bool:
        self.close()
        return False
