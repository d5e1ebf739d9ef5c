"""In-run status endpoint: a stdlib HTTP daemon over the live registries.

ROADMAP item 2 (mapping-as-a-service) needs the progress/gauge
registries exposed as a live status endpoint; this is that substrate.
``map --status-port N`` (or :attr:`repro.api.MapOptions.status_port`)
mounts a :class:`StatusServer` for the duration of the run: a
``ThreadingHTTPServer`` on a daemon thread, bound to ``127.0.0.1``
(``port=0`` asks the OS for a free port — the bound port is logged and
available as :attr:`StatusServer.port`), serving:

``GET /metrics``
    The run's counters, gauges and histograms as OpenMetrics /
    Prometheus text (:func:`repro.obs.export.render_openmetrics`) —
    point a Prometheus scrape job straight at it.
``GET /status``
    One JSON document: the heartbeat record (reads done, rates, GCUPS,
    sliding-window ETA, run_id), queue-depth gauges, batch occupancy
    and fault counters (:func:`repro.obs.export.status_record`).
``GET /events``
    The recent tail of the structured event ring
    (:data:`repro.obs.events.EVENTS`); ``?limit=N``, ``?kind=K`` and
    ``?after_seq=S`` filter it.
``GET /healthz``
    ``200 ok`` while the server is up — a liveness probe.

Routing and the daemon/bind/port-0 lifecycle are the shared
:mod:`repro.obs.httpd` plumbing — the ``repro serve`` front-end mounts
the same :func:`repro.obs.httpd.obs_route` surface on its own port, so
a scrape job configured for one works unchanged against the other.

Requests *sample* the same lock-free shards the heartbeat samples; the
mapping hot path is never touched, so scraping cannot slow a run (the
overhead gate in ``benchmarks/bench_metrics_smoke.py`` holds this to
<=2%). Works on both backends: the processes pipeline already merges
worker counter/histogram deltas into the parent registries per
completed chunk, so mid-run samples see live totals, not end-of-run
ones.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler
from typing import Optional
from urllib.parse import urlparse

from .export import RunSampler
from .httpd import DaemonHTTPServer, obs_route, text_reply
from .logs import get_logger

__all__ = ["StatusServer"]


class _StatusHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's sampler. Stateless."""

    server_version = "manymap-statusd"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        reply = obs_route(
            self.server.sampler,
            url.path,
            url.query,
            traces=getattr(self.server, "traces", None),
        )
        if reply is None:
            reply = text_reply(404, "not found\n")
        self._reply(*reply)

    # -- plumbing ------------------------------------------------------ #

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args) -> None:  # pragma: no cover
        # Route access logs through our logger at debug, not stderr spam.
        get_logger("statusd").debug("%s " + fmt, self.address_string(), *args)


class StatusServer(DaemonHTTPServer):
    """The per-run HTTP status daemon; a context manager.

    ``sampler`` is the run's shared :class:`RunSampler` (the same one
    the progress heartbeat uses). ``port=0`` binds an OS-assigned free
    port; read :attr:`port` (or :attr:`url`) after :meth:`start` for
    the real one. Serving happens on daemon threads, so a crashed or
    interrupted run never hangs on the server.
    """

    handler_class = _StatusHandler
    log_name = "statusd"

    def __init__(
        self,
        sampler: Optional[RunSampler] = None,
        port: int = 0,
        host: str = "127.0.0.1",
        traces=None,
    ) -> None:
        super().__init__(port=port, host=host)
        self.sampler = sampler or RunSampler()
        #: optional :class:`repro.obs.tracing.TraceStore` — mounts
        #: ``/trace/<id>`` and ``/traces`` on this daemon when set.
        self.traces = traces

    def _configure(self, httpd) -> None:
        httpd.sampler = self.sampler
        httpd.traces = self.traces

    def start(self) -> "StatusServer":
        super().start()
        return self

    def __enter__(self) -> "StatusServer":
        return self.start()
